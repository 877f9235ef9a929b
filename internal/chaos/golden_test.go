package chaos

import "testing"

// TestSoakGoldenChecksums pins the event-log checksum of every CI-sized
// soak mode. Reproducibility tests only compare two runs of one build;
// these values catch a change that moves every run the same way. A
// deliberate change to a soak's behaviour updates them in the same
// commit, with the reason.
func TestSoakGoldenChecksums(t *testing.T) {
	cases := []struct {
		name string
		cfg  SoakConfig
		want uint64
	}{
		{"plain", shortCfg(1), 0xfe2b7c4bca64a5ab},
		{"split-brain", splitCfg(1), 0x6beb2b7433277423},
		{"storage-replicated", storageCfg(1, "replicated"), 0x2fa2117a8cd56f19},
		{"storage-ec", storageCfg(1, "ec"), 0xf0a34790a698ef0b},
		{"dag", dagCfg(7), 0x4257ebc5f951b7c0},
		{"saturate", satCfg(1), 0xc30164419d80e69c},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Soak(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checksum != c.want {
				t.Errorf("checksum %016x, want %016x", rep.Checksum, c.want)
			}
		})
	}
	t.Run("sharded", func(t *testing.T) {
		rep, err := RunShardSoak(shardSoakCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(0x4c15405f35ddcefb); rep.Checksum != want {
			t.Errorf("checksum %016x, want %016x", rep.Checksum, want)
		}
	})
}

// TestSoakZeroByzantine checks that ByzFraction 0 means no Byzantine
// workers: the run must match one whose fraction rounds to zero
// workers, and every completion must be checkable.
func TestSoakZeroByzantine(t *testing.T) {
	zero := shortCfg(1)
	zero.ByzFraction = 0
	tiny := shortCfg(1)
	tiny.ByzFraction = 1e-6
	a, err := Soak(zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a.Unchecked != 0 {
		t.Errorf("ByzFraction 0: %d unchecked completions, want 0", a.Unchecked)
	}
	if a.Checksum != b.Checksum {
		t.Errorf("ByzFraction 0 checksum %016x differs from ByzFraction 1e-6 checksum %016x", a.Checksum, b.Checksum)
	}
}
