package core

import (
	"math"
	"testing"

	"smvx/internal/sim/machine"
)

// callAllocs measures the heap allocations one lockstep libc call costs
// under the given options: both sides of the exchange (the followers'
// marshal and reply lanes or ring drains, the leader's collection, decode,
// compare, emulation and libc call). Region entry and exit cost a fixed
// amount per region, so the per-call figure is the difference between a
// long and a short region, divided by the extra calls and rounded.
//
// call selects the loop body: "time" is time(0), which returns its result
// in a register; "gettimeofday" writes a timeval into a buffer malloc'd on
// region entry, so every call's output buffer is emulated to the
// followers.
func callAllocs(t *testing.T, call string, opts ...Option) float64 {
	t.Helper()
	env, _ := testApp(t)
	mon := New(env.Machine, env.LibC, append([]Option{WithSeed(11)}, opts...)...)
	calls := 0 // set between regions only, read by every variant
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		switch call {
		case "time":
			for i := 0; i < calls; i++ {
				th.Libc("time", 0)
			}
		case "gettimeofday":
			tv := th.Libc("malloc", 16)
			for i := 0; i < calls; i++ {
				th.Libc("gettimeofday", tv, 0)
			}
			th.Libc("free", tv)
		default:
			t.Errorf("unknown loop body %q", call)
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
// rendezvous, for a call that returns in a register and for one whose
// output buffer is emulated. The figure is an exact count, not a band:
// one new allocation per call on the hot path — a per-call scratch slice,
// a second decode of the same record — moves it and fails the test.
func TestStrictRendezvousAllocs(t *testing.T) {
	for _, c := range []struct {
		call     string
		variants int
		want     float64
	}{
		{"time", 2, 8},
		{"time", 3, 15},
		{"gettimeofday", 2, 9},
		{"gettimeofday", 3, 17},
	} {
		if got := callAllocs(t, c.call, WithVariants(c.variants)); got != c.want {
			t.Errorf("%s, N=%d: %v allocs per strict rendezvous, want %v", c.call, c.variants, got, c.want)
		}
	}
}

// TestPipelinedEmulationAllocs pins the exact heap allocations per
// pipelined call whose output buffer rides the result record (lag window
// 64): the leader's capture and record, and each follower's decode and
// apply.
func TestPipelinedEmulationAllocs(t *testing.T) {
	for _, c := range []struct {
		variants int
		want     float64
	}{
		{2, 11},
		{3, 20},
	} {
		got := callAllocs(t, "gettimeofday", WithVariants(c.variants),
			WithLockstepMode(LockstepPipelined), WithLagWindow(64))
		if got != c.want {
			t.Errorf("N=%d: %v allocs per pipelined emulated call, want %v", c.variants, got, c.want)
		}
	}
}
