package core

import (
	"math"
	"testing"

	"smvx/internal/sim/machine"
)

// rendezvousAllocs measures the heap allocations one strict rendezvous
// costs at the given variant-set size: both sides of the exchange (the
// followers' marshal and reply lanes, the leader's collection, decode,
// compare and libc call). Region entry and exit cost a fixed amount per
// region, so the per-call figure is the difference between a long and a
// short region, divided by the extra calls and rounded.
func rendezvousAllocs(t *testing.T, variants int) float64 {
	t.Helper()
	env, _ := testApp(t)
	mon := New(env.Machine, env.LibC, WithSeed(11), WithVariants(variants))
	calls := 0 // set between regions only, read by every variant
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		for i := 0; i < calls; i++ {
			th.Libc("time", 0)
		}
		return 0
	})
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	const short, long = 8, 8 + 512
	var perCall float64
	runErr := th.Run(func(tt *machine.Thread) {
		region := func() {
			if err := mon.Start(tt, "protected_func"); err != nil {
				t.Errorf("Start: %v", err)
				return
			}
			tt.Call("protected_func")
			if err := mon.End(tt); err != nil {
				t.Errorf("End: %v", err)
			}
		}
		calls = short
		a := testing.AllocsPerRun(4, region)
		calls = long
		b := testing.AllocsPerRun(4, region)
		perCall = math.Round((b - a) / (long - short))
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if alarms := mon.Alarms(); len(alarms) != 0 {
		t.Fatalf("alarms on identical execution: %v", alarms)
	}
	return perCall
}

// TestStrictRendezvousAllocs pins the exact heap allocations per strict
// rendezvous. The figure is an exact count, not a band: one new allocation
// per call on the hot path — a per-call scratch slice, a second decode of
// the same record — moves it and fails the test.
func TestStrictRendezvousAllocs(t *testing.T) {
	for _, c := range []struct {
		variants int
		want     float64
	}{
		{2, 8},
		{3, 15},
	} {
		if got := rendezvousAllocs(t, c.variants); got != c.want {
			t.Errorf("N=%d: %v allocs per strict rendezvous, want %v", c.variants, got, c.want)
		}
	}
}
