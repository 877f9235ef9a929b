// Command perfbench is the repository benchmark. It runs one named, seeded
// workload through the public functions of the simulator's layers, checks
// the simulated output, and prints one JSON result line whose metrics are
// the ones BENCHMARK.json declares: the end-to-end metrics untraced
// (--trace 0), or the per-layer metrics from a traced run (--trace 1).
//
//	bash perfbench/run.sh --workload beacon-route --seed 1 --seconds 10 --trace 0
//
// See perfbench/METRICS.md for the workloads, the metrics and what each
// layer metric is predicted to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one invocation's settings. The fields after trace have no
// flag: main fixes the two paths, and only tests set the others.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool

	small     bool   // smallest world sizes, for the output-format test
	forceFail bool   // fail one correctness check on purpose
	specPath  string // BENCHMARK.json
	spansDir  string // where a traced run writes its spans
}

func main() {
	opts := options{specPath: "BENCHMARK.json", spansDir: ".bench_build"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "", "workload name")
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced mode and prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	opts.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := execute(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metricValue and result are the output line's format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations and the reasons the failed ones failed.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) op(failures []string) {
	t.attempted++
	if len(failures) > 0 {
		t.failed++
		t.reasons = append(t.reasons, failures...)
	}
}

func execute(opts options, stdout, stderr io.Writer) error {
	spec, err := loadSpec(opts.specPath)
	if err != nil {
		return err
	}
	w, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	declared := false
	for _, d := range spec.Workloads {
		declared = declared || d.Name == opts.workload
	}
	if !declared {
		return fmt.Errorf("workload %q is not declared in %s", opts.workload, opts.specPath)
	}
	if opts.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	r := &run{w: w, size: w.full, opts: opts, log: stderr}
	if opts.small {
		r.size = w.small
	}
	budget := time.Duration(opts.seconds) * time.Second
	if !w.parallel {
		// A serial workload and its garbage collector share one core, so
		// a stall of another core cannot move its host times.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}

	var values map[string]float64
	if opts.trace {
		if values, err = r.traced(budget); err != nil {
			return err
		}
	} else {
		values = r.untraced(budget)
	}
	if opts.forceFail {
		r.t.op([]string{"forced failure"})
	}
	values["bench.failed_ratio"] = float64(r.t.failed) / float64(r.t.attempted)

	declaredMetrics := spec.EndToEnd
	if opts.trace {
		declaredMetrics = spec.PerLayer
	}
	res := result{Attempted: r.t.attempted, Failed: r.t.failed, Metrics: make(map[string]metricValue)}
	for _, m := range declaredMetrics {
		v, ok := values[m.Name]
		switch {
		case !ok && opts.trace:
			// A layer this workload does not drive reads zero.
		case !ok:
			r.t.reasons = append(r.t.reasons, "end-to-end metric "+m.Name+" not measured")
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.t.reasons = append(r.t.reasons, fmt.Sprintf("metric %s is %v", m.Name, v))
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(r.t.reasons) > 0 && res.Failed == 0 {
		// A metric that could not be measured fails the run even when
		// every operation passed its checks.
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	for _, reason := range r.t.reasons {
		fmt.Fprintln(stderr, "check failed:", reason)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// run is one invocation: the workload at its size, the operations' tally,
// and where progress lines go.
type run struct {
	w    *workload
	size sizeCfg
	opts options
	t    tally
	log  io.Writer
}

// sample is one operation's host cost. scale converts its host times to
// the nominal host's: refNominal over the reference load's mean time just
// before and just after the operation. layer holds its per-layer host
// times in a traced run.
type sample struct {
	setup, wall time.Duration
	scale       float64
	ref         time.Duration
	events      uint64
	speedup     float64
	allocBytes  uint64
	allocs      uint64
	rss         uint64 // peak resident bytes
	layer       map[string]float64
}

// spanMetrics maps the spans the workloads record to the per-layer
// metrics of their summed duration and, where named, their self time.
var spanMetrics = map[string]struct{ total, self string }{
	"sim.Kernel.Run":                  {"sim.run_s", "sim.run_self_s"},
	"mobility.Manager.Step":           {"mobility.step_s", ""},
	"radio.Medium.UpdatePosition":     {"radio.update_pos_s", ""},
	"routing.Router.Send":             {"routing.send_s", ""},
	"pki.TA.Enroll":                   {"pki.enroll_s", ""},
	"auth.Authenticator.Authenticate": {"auth.authenticate_s", ""},
}

// minOps is the fewest operations a run measures, so every median has
// several samples even when one operation outlasts --seconds.
const minOps = 3

// measure runs operations until the budget is spent (at least minOps),
// checking each one's exact counts against ref's, or against the first
// operation's when ref is nil. With a tracer, each operation's spans are
// recorded and summed into its sample. It returns the samples and the
// reference result.
func (r *run) measure(budget time.Duration, tr *tracer, ref *opResult) ([]sample, *opResult) {
	var out []sample
	load := newRefLoad()
	load.time() // first touch of its memory
	refBefore := load.time()
	deadline := time.Now().Add(budget)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		first := 0
		if tr != nil {
			first = len(tr.spans)
		}
		// Each operation starts from a collected heap returned to the OS,
		// so one operation's garbage is not collected on the next one's
		// time and its peak resident memory is its own.
		debug.FreeOSMemory()
		rssErr := resetPeakRSS()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := tr.begin("perfbench.op")
		res, err := r.w.op(r.size, r.opts.seed, tr)
		tr.end(sp)
		runtime.ReadMemStats(&after)
		rss, peakErr := peakRSS()
		if err == nil {
			err = errors.Join(rssErr, peakErr)
		}
		if err != nil {
			r.t.op([]string{fmt.Sprintf("%s operation %d: %v", r.w.name, i, err)})
			continue
		}
		s := sample{
			setup:      res.setup,
			wall:       res.wall,
			events:     res.events,
			speedup:    res.speedup,
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			allocs:     after.Mallocs - before.Mallocs,
			rss:        rss,
		}
		if s.speedup == 0 {
			s.speedup = 1 // a serial operation's busy time is its critical path
		}
		failures := res.failures
		if r.w.build != nil {
			if s.setup, err = r.timeBuilds(); err != nil {
				failures = append(failures, fmt.Sprintf("%s build after operation %d: %v", r.w.name, i, err))
			}
		}
		refAfter := load.time()
		s.ref = (refBefore + refAfter) / 2
		s.scale = float64(refNominal) / float64(s.ref)
		refBefore = refAfter
		if ref == nil {
			ref = res
		} else {
			failures = append(failures, diffCounts(ref.counts, res.counts)...)
		}
		r.t.op(failures)
		fmt.Fprintf(r.log, "%s op %d: setup %.4fs wall %.4fs reference %.4fs events %d peak_rss %d\n", r.w.name, i, s.setup.Seconds(), s.wall.Seconds(), s.ref.Seconds(), s.events, s.rss)
		if tr != nil {
			s.layer = map[string]float64{
				"runtime.gc_cycles":  float64(after.NumGC - before.NumGC),
				"runtime.gc_pause_s": time.Duration(after.PauseTotalNs - before.PauseTotalNs).Seconds(),
			}
			for k, x := range res.timers {
				s.layer[k] = x
			}
			for name, tot := range totals(tr.spans[first:]) {
				if m, ok := spanMetrics[name]; ok {
					s.layer[m.total] = tot.Total.Seconds()
					if m.self != "" {
						s.layer[m.self] = tot.Self.Seconds()
					}
				}
			}
		}
		out = append(out, s)
	}
	return out, ref
}

// setupBuilds is how many world builds one set-up sample times.
const setupBuilds = 16

// timeBuilds builds the workload's world setupBuilds times from a
// collected heap and returns the mean time of one build.
func (r *run) timeBuilds() (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	for j := 0; j < setupBuilds; j++ {
		if err := r.w.build(r.size, r.opts.seed); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / setupBuilds, nil
}

// normWall is an operation's measured phase in nominal-host seconds.
func normWall(s sample) float64 { return s.wall.Seconds() * s.scale }

func (r *run) untraced(budget time.Duration) map[string]float64 {
	samples, _ := r.measure(budget, nil, nil)
	return map[string]float64{
		"norm_wall_s":       medianOf(samples, normWall),
		"setup_s":           medianOf(samples, func(s sample) float64 { return s.setup.Seconds() * s.scale }),
		"norm_events_per_s": medianOf(samples, func(s sample) float64 { return float64(s.events) / normWall(s) }),
		"alloc_bytes":       medianOf(samples, func(s sample) float64 { return float64(s.allocBytes) }),
		"allocs":            medianOf(samples, func(s sample) float64 { return float64(s.allocs) }),
		"critpath_speedup":  medianOf(samples, func(s sample) float64 { return s.speedup }),
		"max_rss_bytes":     medianOf(samples, func(s sample) float64 { return float64(s.rss) }),
	}
}

// traced spends half the budget untraced and half traced on the same
// seed, requires the traced operations' exact counts to equal the
// untraced ones, takes the per-layer host times as medians over the
// traced operations, then runs the layer probes on the final state.
func (r *run) traced(budget time.Duration) (map[string]float64, error) {
	plain, ref := r.measure(budget/2, nil, nil)
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", r.w.name, r.opts.seed, time.Now().UnixNano()))
	traced, _ := r.measure(budget/2, tr, ref)
	if ref == nil || len(traced) == 0 {
		return map[string]float64{}, nil // every operation failed; the tally says so
	}
	v := make(map[string]float64)
	for k, x := range ref.counts {
		v[k] = x
	}
	for k := range traced[0].layer {
		v[k] = medianOf(traced, func(s sample) float64 { return s.layer[k] })
	}
	v["bench.trace_overhead_s"] = medianOf(traced, normWall) - medianOf(plain, normWall)
	v["bench.host_wall_s"] = medianOf(plain, func(s sample) float64 { return s.wall.Seconds() })
	v["bench.reference_s"] = medianOf(plain, func(s sample) float64 { return s.ref.Seconds() })
	pv, failures := runProbes(ref.probe.withDefaults(), r.opts.seed, r.log)
	r.t.op(failures)
	for k, x := range pv {
		v[k] = x
	}
	if err := os.MkdirAll(r.opts.spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(r.opts.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return v, nil
}

// resetPeakRSS restarts the kernel's record of the process's peak resident
// memory (Linux).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident memory since the last
// resetPeakRSS (Linux).
func peakRSS() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64)
			return kib * 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func medianOf(samples []sample, f func(s sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// diffCounts lists every exact count that differs between two operations
// on the same seed.
func diffCounts(want, got map[string]float64) []string {
	var out []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			out = append(out, fmt.Sprintf("count %s: %v, first operation had %v", k, got[k], w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			out = append(out, fmt.Sprintf("count %s appeared", k))
		}
	}
	sort.Strings(out)
	return out
}
