package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

// heldOutSeed is never used while tuning the benchmark; METRICS.md
// documents it beside the default seed 1.
const heldOutSeed = 20261017

// exercised lists, per workload, per-layer metrics the traced run must
// report as non-zero because the workload drives that layer.
var exercised = map[string][]string{
	"beacon-route": {"sim.events", "sim.pending_max", "sim.run_s", "sim.run_self_s", "mobility.steps", "mobility.step_s",
		"radio.sent", "radio.delivered", "radio.update_pos_s", "cluster.role_changes", "routing.originated", "routing.send_s"},
	"auth-handshake": {"sim.events", "sim.run_s", "pki.enrollments", "pki.enroll_s", "auth.attempts", "auth.successes",
		"auth.verify_ops", "auth.crl_scanned", "auth.bytes_sent", "auth.authenticate_s"},
	"sharded": {"sim.events", "sim.shard_windows", "sim.shard_cross_events", "sim.shard_busy_s", "sim.shard_critpath_s", "radio.sent"},
}

// runOutput runs the command in-process at the smallest world sizes and
// returns its standard output.
func runOutput(t *testing.T, workload string, trace, forceFail bool) []byte {
	t.Helper()
	var stdout bytes.Buffer
	opts := options{workload: workload, seed: 1, seconds: 1, trace: trace, small: true, forceFail: forceFail,
		specPath: specPath, spansDir: t.TempDir()}
	if err := execute(opts, &stdout, io.Discard); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return stdout.Bytes()
}

// checkFormat parses the last output line against the result format and
// returns its metric values.
func checkFormat(t *testing.T, out []byte, declared []metricSpec, wantCorrect bool) map[string]float64 {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, last)
	}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	var correct bool
	var attempted, failed int
	if err := json.Unmarshal(raw["correct"], &correct); err != nil {
		t.Errorf("correct: %v", err)
	}
	// Whole numbers only: decoding into int rejects 1.0 and 1e3.
	if err := json.Unmarshal(raw["attempted"], &attempted); err != nil || attempted < 1 {
		t.Errorf("attempted = %s: %v", raw["attempted"], err)
	}
	if err := json.Unmarshal(raw["failed"], &failed); err != nil || failed < 0 || failed > attempted {
		t.Errorf("failed = %s of %d: %v", raw["failed"], attempted, err)
	}
	if correct != (failed == 0) || correct != wantCorrect {
		t.Errorf("correct = %v with %d of %d failed, want correct = %v", correct, failed, attempted, wantCorrect)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if len(metrics) != len(declared) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(metrics), len(declared))
	}
	values := make(map[string]float64)
	for _, d := range declared {
		m, ok := metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		var unit string
		var v float64
		if len(m) != 2 || json.Unmarshal(m["unit"], &unit) != nil || json.Unmarshal(m["value"], &v) != nil {
			t.Errorf("metric %s is malformed: %v", d.Name, m)
			continue
		}
		if unit != d.Unit {
			t.Errorf("metric %s unit %q, want %q", d.Name, unit, d.Unit)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.Name, v)
		}
		values[d.Name] = v
	}
	return values
}

func TestOutputFormat(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		name := wl.Name
		t.Run(name, func(t *testing.T) {
			if _, ok := workloads[name]; !ok {
				t.Fatalf("workload %s has no implementation", name)
			}
			e2e := checkFormat(t, runOutput(t, name, false, false), spec.EndToEnd, true)
			for _, m := range spec.EndToEnd {
				if e2e[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, e2e[m.Name])
				}
			}
			layer := checkFormat(t, runOutput(t, name, true, false), spec.PerLayer, true)
			if r := layer["bench.failed_ratio"]; r < 0 || r > 1 {
				t.Errorf("bench.failed_ratio = %v", r)
			}
			for _, m := range exercised[name] {
				if layer[m] <= 0 {
					t.Errorf("%s drives %s's layer but reports %v", name, m, layer[m])
				}
			}
			// The scheduler probe runs only at a queue depth the workload
			// measured; every other probe runs on every workload.
			for _, m := range spec.PerLayer {
				skip := m.Name == "sim.sched_pop_ns" && layer["sim.pending_max"] == 0
				if strings.HasSuffix(m.Name, "_ns") && !skip && layer[m.Name] <= 0 {
					t.Errorf("probe metric %s = %v, want > 0", m.Name, layer[m.Name])
				}
			}
			if layer["sim.pending_max"] == 0 && layer["sim.sched_pop_ns"] != 0 {
				t.Errorf("sim.sched_pop_ns = %v without a measured queue depth", layer["sim.sched_pop_ns"])
			}
		})
	}
}

// TestFailurePathWellFormed forces one failed check and requires the
// output to stay in the result format, reporting the failure.
func TestFailurePathWellFormed(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	e2e := checkFormat(t, runOutput(t, "sharded", false, true), spec.EndToEnd, false)
	if e2e["norm_wall_s"] <= 0 {
		t.Errorf("norm_wall_s = %v after a failed check", e2e["norm_wall_s"])
	}
	layer := checkFormat(t, runOutput(t, "sharded", true, true), spec.PerLayer, false)
	if r := layer["bench.failed_ratio"]; r <= 0 || r > 1 {
		t.Errorf("bench.failed_ratio = %v, want in (0, 1]", r)
	}
}

// TestSameSeedSameCounts runs each workload twice on the default seed
// and requires identical exact counts, then once on the held-out seed,
// which must pass every check.
func TestSameSeedSameCounts(t *testing.T) {
	for name, w := range workloads {
		a, err := w.op(w.small, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := w.op(w.small, 1, newTracer("test"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffCounts(a.counts, b.counts); len(d) > 0 || len(a.counts) == 0 {
			t.Errorf("%s: counts differ between untraced and traced runs of one seed: %v", name, d)
		}
		for _, r := range []*opResult{a, b} {
			if len(r.failures) > 0 {
				t.Errorf("%s seed 1: %v", name, r.failures)
			}
		}
		h, err := w.op(w.small, heldOutSeed, nil)
		if err != nil {
			t.Fatalf("%s held-out seed: %v", name, err)
		}
		if len(h.failures) > 0 {
			t.Errorf("%s held-out seed: %v", name, h.failures)
		}
	}
}

func TestSpansAgreeWithPerLayerNames(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	for span, m := range spanMetrics {
		for _, name := range []string{m.total, m.self} {
			if name != "" && !declared[name] {
				t.Errorf("span %s feeds %s, which BENCHMARK.json does not declare", span, name)
			}
		}
	}
}
