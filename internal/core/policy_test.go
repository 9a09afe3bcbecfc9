package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"smvx/internal/boot"
	"smvx/internal/obs"
	"smvx/internal/sim/machine"
)

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range []DivergencePolicy{PolicyKillBoth, PolicyLeaderContinue, PolicyRestartVariant, PolicyRollback} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != PolicyKillBoth {
		t.Errorf("empty policy = %v, %v; want kill-both", p, err)
	}
	if _, err := ParsePolicy("shrug"); err == nil {
		t.Error("unknown policy must not parse")
	}
	if DivergencePolicy(42).String() != "policy(42)" {
		t.Errorf("out-of-range String = %q", DivergencePolicy(42))
	}
}

// policyApp is testApp with a recorder attached, so policy tests can assert
// on detach/restart events.
func policyApp(t *testing.T, opts ...Option) (*boot.Env, *Monitor, *obs.Recorder) {
	t.Helper()
	env, _ := testApp(t)
	rec := env.Obs
	if rec == nil {
		rec = obs.NewRecorder(obs.Config{})
	}
	base := []Option{WithSeed(11), WithRecorder(rec)}
	mon := New(env.Machine, env.LibC, append(base, opts...)...)
	return env, mon, rec
}

// defineCrashOnce registers a protected function whose follower crashes (via
// a bias-conditional load of an unmapped address) only in its first
// incarnation — a re-cloned follower runs clean, so restart policies can
// prove recovery. The incarnation counter lives in the test harness, outside
// the simulated machine, so it is exempt from lockstep.
func defineCrashOnce(t *testing.T, env *boot.Env) {
	t.Helper()
	var followerRuns atomic.Int64
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		if th.Bias() != 0 && followerRuns.Add(1) == 1 {
			th.Load64(0xdead_0000_0000) // unmapped: follower faults
		}
		th.Libc("close", 0)
		return 0
	})
}

func runRegions(t *testing.T, env *boot.Env, mon *Monitor, fn string, n int) (completed int, runErr error) {
	t.Helper()
	th, err := env.MainThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Init(th); err != nil {
		t.Fatal(err)
	}
	runErr = th.Run(func(tt *machine.Thread) {
		for i := 0; i < n; i++ {
			if err := mon.Start(tt, fn); err != nil {
				t.Errorf("Start %d: %v", i, err)
				return
			}
			tt.Call(fn)
			if err := mon.End(tt); err != nil && !errors.Is(err, machine.ErrRegionRolledBack) {
				t.Errorf("End %d: %v", i, err)
				return
			}
			completed++
		}
	})
	return completed, runErr
}

func eventCount(rec *obs.Recorder, kind obs.EventKind) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func TestLeaderContinueContainsFollowerCrash(t *testing.T) {
	env, mon, rec := policyApp(t, WithPolicy(PolicyLeaderContinue))
	defineCrashOnce(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 3)
	if runErr != nil {
		t.Fatalf("leader crashed: %v", runErr)
	}
	if completed != 3 {
		t.Fatalf("completed %d/3 regions", completed)
	}
	alarms := mon.Alarms()
	if len(alarms) == 0 || alarms[0].Reason != AlarmFollowerFault {
		t.Fatalf("alarms = %v, want AlarmFollowerFault", alarms)
	}
	for _, a := range alarms {
		if !a.Handled {
			t.Errorf("alarm not handled under leader-continue: %+v", a)
		}
	}
	if mon.UnhandledAlarmCount() != 0 {
		t.Errorf("UnhandledAlarmCount = %d", mon.UnhandledAlarmCount())
	}
	if !mon.Degraded() {
		t.Error("monitor should be degraded after detach")
	}
	if mon.RestartsUsed() != 0 {
		t.Errorf("leader-continue restarted the follower %d times", mon.RestartsUsed())
	}
	if n := eventCount(rec, obs.EvFollowerDetached); n != 1 {
		t.Errorf("EvFollowerDetached count = %d, want 1", n)
	}
	reports := mon.Reports()
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if !reports[0].Diverged || !reports[0].Degraded {
		t.Errorf("region 0 = %+v, want diverged+degraded", reports[0])
	}
	// Later regions run leader-only: degraded, not diverged, no creation.
	for i := 1; i < 3; i++ {
		if !reports[i].Degraded || reports[i].Diverged {
			t.Errorf("region %d = %+v, want degraded leader-only", i, reports[i])
		}
	}
}

func TestRestartFollowerReclonesIntoLockstep(t *testing.T) {
	env, mon, rec := policyApp(t, WithPolicy(PolicyRestartVariant),
		WithRestartBudget(2), WithRestartBackoff(100))
	defineCrashOnce(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 3)
	if runErr != nil || completed != 3 {
		t.Fatalf("completed %d/3, err=%v", completed, runErr)
	}
	if mon.RestartsUsed() != 1 {
		t.Fatalf("RestartsUsed = %d, want 1", mon.RestartsUsed())
	}
	if mon.Degraded() {
		t.Error("monitor still degraded after successful restart")
	}
	if mon.UnhandledAlarmCount() != 0 {
		t.Errorf("UnhandledAlarmCount = %d", mon.UnhandledAlarmCount())
	}
	if n := eventCount(rec, obs.EvFollowerRestarted); n != 1 {
		t.Errorf("EvFollowerRestarted count = %d, want 1", n)
	}
	reports := mon.Reports()
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if !reports[1].FollowerRestarted {
		t.Errorf("region 1 = %+v, want FollowerRestarted", reports[1])
	}
	// The restarted follower is back in lockstep: region 1 and 2 replicate
	// the full call count with no divergence.
	for i := 1; i < 3; i++ {
		if reports[i].Diverged || reports[i].Degraded {
			t.Errorf("region %d = %+v, want clean lockstep", i, reports[i])
		}
		if reports[i].LibcCalls != 2 {
			t.Errorf("region %d LibcCalls = %d, want 2", i, reports[i].LibcCalls)
		}
	}
}

// defineCrashAlways makes the follower crash in every incarnation, to
// exhaust the restart budget.
func defineCrashAlways(t *testing.T, env *boot.Env) {
	t.Helper()
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		if th.Bias() != 0 {
			th.Load64(0xdead_0000_0000)
		}
		th.Libc("close", 0)
		return 0
	})
}

func TestRestartBudgetExhaustionDegradesForGood(t *testing.T) {
	env, mon, _ := policyApp(t, WithPolicy(PolicyRestartVariant),
		WithRestartBudget(2), WithRestartBackoff(100))
	defineCrashAlways(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 5)
	if runErr != nil || completed != 5 {
		t.Fatalf("completed %d/5, err=%v", completed, runErr)
	}
	if mon.RestartsUsed() != 2 {
		t.Fatalf("RestartsUsed = %d, want budget of 2", mon.RestartsUsed())
	}
	if !mon.Degraded() {
		t.Error("monitor must stay degraded once the budget is spent")
	}
	if mon.UnhandledAlarmCount() != 0 {
		t.Errorf("UnhandledAlarmCount = %d", mon.UnhandledAlarmCount())
	}
	reports := mon.Reports()
	// Regions 0-2 had followers (initial + 2 restarts), all crashed; 3-4 ran
	// leader-only.
	for i := 3; i < 5; i++ {
		if !reports[i].Degraded || reports[i].Diverged {
			t.Errorf("region %d = %+v, want leader-only", i, reports[i])
		}
	}
}

// TestStallTripsRendezvousDeadline drives a follower that burns cycles past
// the deadline before its rendezvous; the leader must raise
// AlarmRendezvousTimeout deterministically (lag check) rather than deadlock.
func TestStallTripsRendezvousDeadline(t *testing.T) {
	env, mon, _ := policyApp(t, WithPolicy(PolicyLeaderContinue),
		WithRendezvousDeadline(100_000))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		if th.Bias() != 0 {
			for i := 0; i < 50; i++ {
				th.ChargeUser(10_000) // 500k cycles >> 100k deadline
			}
		}
		th.Libc("close", 0)
		return 0
	})
	completed, runErr := runRegions(t, env, mon, "protected_func", 2)
	if runErr != nil || completed != 2 {
		t.Fatalf("completed %d/2, err=%v", completed, runErr)
	}
	var timeout *Alarm
	for i, a := range mon.Alarms() {
		if a.Reason == AlarmRendezvousTimeout {
			timeout = &mon.Alarms()[i]
		}
	}
	if timeout == nil {
		t.Fatalf("no AlarmRendezvousTimeout; alarms = %v", mon.Alarms())
	}
	if !timeout.Handled {
		t.Error("timeout alarm not handled under leader-continue")
	}
	if !mon.Degraded() {
		t.Error("follower should be detached after the blown deadline")
	}
}

// TestHungFollowerTrippedByWatchdog wedges the follower off-CPU (blocking on
// a channel, charging nothing) — only the real-time watchdog's frozen-clock
// breaker can catch this; the leader must not deadlock.
func TestHungFollowerTrippedByWatchdog(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	env, mon, _ := policyApp(t, WithPolicy(PolicyLeaderContinue),
		WithRendezvousDeadline(DefaultRendezvousDeadline))
	env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.Libc("gettimeofday", uint64(g), 0)
		if th.Bias() != 0 {
			<-release // hangs until test teardown: no cycles charged
		}
		th.Libc("close", 0)
		return 0
	})
	completed, runErr := runRegions(t, env, mon, "protected_func", 1)
	if runErr != nil || completed != 1 {
		t.Fatalf("completed %d/1, err=%v", completed, runErr)
	}
	found := false
	for _, a := range mon.Alarms() {
		if a.Reason == AlarmRendezvousTimeout && a.Handled {
			found = true
		}
	}
	if !found {
		t.Fatalf("no handled AlarmRendezvousTimeout; alarms = %v", mon.Alarms())
	}
	if !mon.Degraded() {
		t.Error("hung follower should be detached")
	}
}

// TestEmulationFaultAlarm points the follower's gettimeofday buffer at an
// unmapped address: the emulation copy must raise AlarmEmulationFault with
// its own reason rather than folding into a generic divergence.
func TestEmulationFaultAlarm(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy DivergencePolicy
	}{
		{"kill-both", PolicyKillBoth},
		{"leader-continue", PolicyLeaderContinue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, mon, _ := policyApp(t, WithPolicy(tc.policy))
			env.Prog.MustDefine("protected_func", func(th *machine.Thread, args []uint64) uint64 {
				g := uint64(th.Global("g_buf"))
				if th.Bias() != 0 {
					g = 0x6f6f_0000_0000 // unmapped in every variant
				}
				th.Libc("gettimeofday", g, 0)
				th.Libc("close", 0)
				return 0
			})
			completed, runErr := runRegions(t, env, mon, "protected_func", 1)
			if runErr != nil || completed != 1 {
				t.Fatalf("completed %d/1, err=%v", completed, runErr)
			}
			var found *Alarm
			for i, a := range mon.Alarms() {
				if a.Reason == AlarmEmulationFault {
					found = &mon.Alarms()[i]
				}
			}
			if found == nil {
				t.Fatalf("no AlarmEmulationFault; alarms = %v", mon.Alarms())
			}
			if found.Handled != (tc.policy != PolicyKillBoth) {
				t.Errorf("Handled = %v under %s", found.Handled, tc.policy)
			}
			if tc.policy == PolicyKillBoth && mon.UnhandledAlarmCount() == 0 {
				t.Error("kill-both must leave the alarm unhandled")
			}
		})
	}
}

// TestKillBothPreservesPaperBehaviour: under the default policy a divergence
// still aborts the follower with ErrDivergence and nothing is detached,
// restarted, or marked degraded.
func TestKillBothPreservesPaperBehaviour(t *testing.T) {
	env, mon, rec := policyApp(t)
	defineCrashAlways(t, env)
	completed, runErr := runRegions(t, env, mon, "protected_func", 2)
	if runErr != nil || completed != 2 {
		t.Fatalf("completed %d/2, err=%v", completed, runErr)
	}
	if mon.Degraded() || mon.RestartsUsed() != 0 {
		t.Errorf("kill-both mutated policy state: degraded=%v restarts=%d",
			mon.Degraded(), mon.RestartsUsed())
	}
	if n := eventCount(rec, obs.EvFollowerDetached); n != 0 {
		t.Errorf("kill-both emitted %d detach events", n)
	}
	for _, a := range mon.Alarms() {
		if a.Handled {
			t.Errorf("kill-both marked alarm handled: %+v", a)
		}
	}
	if mon.UnhandledAlarmCount() != len(mon.Alarms()) {
		t.Errorf("unhandled = %d, alarms = %d", mon.UnhandledAlarmCount(), len(mon.Alarms()))
	}
	// Kill-both keeps re-cloning per region: region 1 diverges again.
	reports := mon.Reports()
	if len(reports) != 2 || !reports[1].Diverged {
		t.Errorf("reports = %+v", reports)
	}
	if errors.Is(runErr, ErrDetached) {
		t.Error("kill-both must never detach")
	}
}
