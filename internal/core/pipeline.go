package core

// Pipelined lockstep: the bounded run-ahead rendezvous ring.
//
// Strict lockstep (lockstep.go) stops the leader at every libc call until
// the followers arrive — rendezvous RTT dominates protected-region
// overhead. In pipelined mode the roles invert: the leader executes its
// call, publishes a framed record (the canonical-varint IPC codec plus a
// result snapshot) on each follower slot's bounded ring, and keeps running
// up to LagWindow unverified calls ahead; every follower drains its own
// ring asynchronously and performs the exact same decode-before-compare
// divergence checks at drain time, attributing any alarm to the ordinal
// the leader stamped on the record. The three emulation categories become
// sync classes (libc.SyncClassOf): results-emulation calls pipeline
// freely, local calls pipeline with no result payload, and state-changing
// or externally-visible calls are hard barriers — the leader drains every
// ring and completes a full rendezvous (pairwise with one live slot, by
// majority vote with more) before the call's effects leave the process.

import (
	"fmt"
	"time"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// LockstepMode selects the rendezvous discipline for protected regions.
type LockstepMode int

const (
	// LockstepStrict is the paper's stop-and-wait lockstep: the leader
	// blocks at every libc call until the followers catch up.
	LockstepStrict LockstepMode = iota
	// LockstepPipelined decouples the variants over the bounded
	// rendezvous rings with drain-time verification and category-aware
	// sync barriers.
	LockstepPipelined
)

// String names the mode as accepted by ParseLockstepMode.
func (m LockstepMode) String() string {
	switch m {
	case LockstepStrict:
		return "strict"
	case LockstepPipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("lockstep(%d)", int(m))
	}
}

// ParseLockstepMode maps a -lockstep flag value to a mode. The empty
// string selects strict, the paper's default.
func ParseLockstepMode(s string) (LockstepMode, error) {
	switch s {
	case "", "strict":
		return LockstepStrict, nil
	case "pipelined":
		return LockstepPipelined, nil
	default:
		return 0, fmt.Errorf("unknown lockstep mode %q (strict, pipelined)", s)
	}
}

// DefaultLagWindow bounds the pipelined leader's run-ahead when no
// WithLagWindow option is given.
const DefaultLagWindow = 16

// pipelineGrace is the real-time window the leader grants a tripped
// watchdog before concluding a follower is wedged off-CPU: a stalled
// but still-charging follower detects its own blown deadline at drain
// time (with the precise originating ordinal) well inside this window,
// so only a follower that charges nothing at all reaches the leader-side
// timeout path.
const pipelineGrace = 200 * time.Millisecond

// leaderRecord is one entry on a pipelined rendezvous ring: the
// leader's half of a libc call, published ahead of verification. wire is
// the canonical-varint call record (name + args); result — present for
// pipelined-class calls — frames the return value, errno, and output
// buffer snapshots captured at call time. The follower decodes both
// rather than trusting in-process fields. Barrier records carry a reply
// channel instead: the follower hands its own callRecord back and the
// set completes a full rendezvous.
type leaderRecord struct {
	idx     uint64 // 1-based libc-call ordinal, stamped by the leader
	name    string
	wire    []byte
	cat     libc.Category
	barrier bool
	local   bool
	result  []byte
	reply   chan *callRecord
}

// emuBuf is one output-buffer snapshot: the bytes the leader's call wrote
// through its argIdx-th pointer argument, framed into a pipelined result
// record or applied straight from the capture at a strict rendezvous.
type emuBuf struct {
	argIdx int
	data   []byte
}

// appendRecord outcomes.
type appendVerdict int

const (
	appendOK appendVerdict = iota
	appendDead
	appendDetached
	appendTimedOut
)

// leaderCallPipelined runs the leader's side of one pipelined libc call
// among the attached slots att: classify, execute, publish on every live
// slot's ring (blocking only when a lag window is exhausted), and barrier
// where the effects become externally visible.
func (s *session) leaderCallPipelined(t *machine.Thread, name string, args []uint64, idx uint64, att []*followerSlot) uint64 {
	live := att[:0]
	anyDead := false
	for _, sl := range att {
		select {
		case <-sl.dead:
			anyDead = true
		default:
			live = append(live, sl)
		}
	}
	if anyDead {
		// A follower died mid-region; the variant waiter raises the alarm.
		s.diverged.Store(true)
	}
	if len(live) == 0 {
		// Under rollback the region is unwound here (the leader's
		// remaining control flow is suspect); otherwise the leader
		// continues un-replicated (as in strict mode).
		s.maybeAbortRegion(t, name, idx)
		return s.mon.lib.Call(t, name, args)
	}
	if libc.SyncClassOf(name) == libc.SyncBarrier {
		return s.rendezvous(t, name, args, idx, live, true)
	}
	return s.enqueue(t, name, args, idx, live)
}

// enqueue publishes one non-barrier call to every live slot's ring. The
// call executes first, once: each record carries the concrete result, with
// output-buffer snapshots taken now (so the leader overwriting the buffer
// while running ahead cannot corrupt a follower's copy) and rebased into
// that slot's window. The leader's wait is what its appends blocked on
// full rings, at any set size; the captures are not part of it.
func (s *session) enqueue(t *machine.Thread, name string, args []uint64, idx uint64, live []*followerSlot) uint64 {
	entry := s.mon.m.Costs().LockstepEnqueue * clock.Cycles(len(live))
	s.mon.m.ChargeThread(t, entry)
	ret := s.mon.lib.Call(t, name, args)
	errno := t.Errno()
	local := libc.SyncClassOf(name) == libc.SyncLocal
	var wire []byte
	var wait clock.Cycles
	anyOK, timedOut := false, false
	maxDepth := 0
	for _, sl := range live {
		mshMark := s.lr.Mark()
		if wire == nil {
			wire = encodeCallRecord(name, args)
		}
		rec := &leaderRecord{idx: idx, name: name, wire: wire, cat: libc.CategoryOf(name), local: local}
		if !local {
			var bufs []emuBuf
			if out := s.captureOutputs(name, args, ret, sl.delta); out.data != nil {
				bufs = []emuBuf{out}
			}
			rec.result = encodeResultRecord(ret, errno, bufs)
		}
		if lr := s.lr; lr != nil {
			lr.Add(ledger.PhaseMarshal, obs.VariantLeader, ledger.ClassOf(name), 0, mshMark,
				uint64(len(rec.wire)+len(rec.result)))
		}
		verdict, blocked := s.appendRecord(t, sl, rec)
		wait += blocked
		switch verdict {
		case appendDead:
			s.diverged.Store(true)
		case appendTimedOut:
			s.enqueueTimedOut(t, sl, name, idx)
			timedOut = true
		case appendDetached:
			// The slot severed itself at drain time; bookkeeping and the
			// alarm already happened on its goroutine.
		case appendOK:
			anyOK = true
			maxDepth = max(maxDepth, len(sl.ring))
		}
	}
	if !anyOK {
		// Under rollback a lost set unwinds here, except after a lone
		// slot's ring timeout (the pair discipline; see rendezvous).
		if len(live) > 1 || !timedOut {
			s.maybeAbortRegion(t, name, idx)
		}
		return ret
	}
	s.settle(t, name, ledger.PhaseEnqueue, entry, wait, maxDepth)
	return ret
}

// appendRecord publishes one record on a slot's ring, blocking when its
// lag window is exhausted — the bounded run-ahead backpressure — and
// returns the cycles it blocked (0 when the ring had room). The wait is
// parked under waitingSince like a strict rendezvous so the watchdog can
// see it.
func (s *session) appendRecord(t *machine.Thread, sl *followerSlot, rec *leaderRecord) (appendVerdict, clock.Cycles) {
	select {
	case <-sl.dead:
		return appendDead, 0
	case <-sl.detachCh:
		return appendDetached, 0
	default:
	}
	select {
	case sl.ring <- rec:
		return appendOK, 0
	default:
	}
	waitStart := s.mon.m.Counter().Cycles()
	s.waitingSince.Store(int64(waitStart) + 1)
	var v appendVerdict
	select {
	case sl.ring <- rec:
	case <-sl.dead:
		v = appendDead
	case <-sl.detachCh:
		v = appendDetached
	case <-s.timedOut:
		// Grace: a stalled-but-charging follower raises its own timeout
		// (or frees a slot) within this window; see pipelineGrace.
		select {
		case sl.ring <- rec:
		case <-sl.dead:
			v = appendDead
		case <-sl.detachCh:
			v = appendDetached
		case <-time.After(pipelineGrace):
			v = appendTimedOut
		}
	}
	wait := s.mon.m.Counter().Cycles() - waitStart
	s.waitingSince.Store(0)
	if v == appendOK {
		t.AddWaitCycles(wait)
		if obsRec := s.mon.rec; obsRec != nil {
			obsRec.Metrics().Observe("lockstep.wait.cycles", uint64(wait))
		}
	}
	return v, wait
}

// enqueueTimedOut handles a blown deadline while the leader was parked on
// a full ring: the call itself already executed (or, at a barrier of a
// larger set, still runs for the others), so only the alarm and the
// policy detach remain.
func (s *session) enqueueTimedOut(t *machine.Thread, sl *followerSlot, name string, idx uint64) {
	s.timeOut(t, sl, name, idx, true, fmt.Sprintf(
		"follower stopped draining the rendezvous ring inside the %d-cycle deadline",
		s.mon.opts.RendezvousDeadline))
}

// followerCallPipelined runs one follower slot's side: drain the next
// leader record from the slot's ring and verify it — the strict
// rendezvous's decode-before-compare checks, moved to drain time and
// attributed to the ordinal the leader stamped on the record.
func (s *session) followerCallPipelined(t *machine.Thread, sl *followerSlot, name string, args []uint64) uint64 {
	fv := obs.FollowerVariant(sl.id)
	costs := s.mon.m.Costs()
	s.mon.m.ChargeThread(t, costs.LockstepEnqueue)
	cyc := t.UserCycles()
	lag := cyc - sl.fCycles
	sl.fCycles = cyc
	// The deterministic deadline verdict lives on the follower in
	// pipelined mode: at every drain it knows its own lag and the exact
	// ordinal of the call that stalled, where the leader — running ahead
	// — could only attribute a timeout to whatever barrier it is parked
	// on.
	if d := s.mon.opts.RendezvousDeadline; d > 0 && lag > d {
		s.followerTimedOut(t, sl, name, sl.drained+1, lag) // never returns
	}
	lr := s.lr
	var cls ledger.Class
	var dqStart clock.Cycles
	if lr != nil {
		cls = ledger.ClassOf(name)
		lr.Add(ledger.PhaseDrain, fv, cls,
			costs.LockstepEnqueue, ledger.Mark{}, 0)
		dqStart = s.mon.m.Counter().Cycles()
	}
	rec := s.dequeueRecord(t, sl, name) // panics on detach / sequence overrun
	sl.drained++
	if lr != nil {
		lr.Add(ledger.PhaseWait, fv, cls,
			s.mon.m.Counter().Cycles()-dqStart, ledger.Mark{}, 0)
	}

	at := s.arrive(args)
	obsRec := s.mon.rec
	var dspan obs.DrainSpan
	if obsRec != nil {
		dspan = obsRec.BeginDrainSpan(fv, t.TID(), name, uint64(rec.cat))
	}

	// Drain-time divergence checks: decode what crossed the ring, then
	// the same name/scalar comparison as the strict rendezvous.
	cmpMark := s.lr.Mark()
	lname, largs, derr := decodeCallRecord(rec.wire)
	if derr != nil {
		s.drainDiverged(t, sl, Alarm{
			Reason: AlarmCallMismatch, CallIndex: rec.idx, FollowerCall: name,
			Detail: fmt.Sprintf("corrupt IPC call record: %v", derr),
		}, "ipc-corruption")
	}
	if a, cause, ok := compareCalls(rec.idx, lname, largs, name, args); !ok {
		s.drainDiverged(t, sl, a, cause)
	}

	if obsRec != nil {
		obsRec.Record(obs.EvLockstep, fv, t.TID(), name, uint64(rec.cat), rec.idx, 0)
		m := obsRec.Metrics()
		m.Inc("lockstep.category." + rec.cat.Slug())
		m.Observe(obs.MetricRendezvousLag, s.calls.Load()-rec.idx)
		obsRec.ObserveSeries(obs.SeriesLag, s.calls.Load()-rec.idx)
	}
	if lr != nil {
		lr.Add(ledger.PhaseCompare, fv, cls,
			0, cmpMark, uint64(len(rec.wire)))
	}

	if rec.barrier {
		// Everything before this call has drained: hand the follower's own
		// ballot back through the record's reply channel and take the
		// leader's verdict exactly as in strict lockstep.
		frec, waitStart := s.castBallot(t, sl, name, args, lag)
		rec.reply <- frec // cap 1: never blocks
		var res callResult
		select {
		case res = <-frec.resp:
		case <-sl.detachCh:
			// A buffered verdict beats the detach signal (select picks ready
			// cases at random; the reply may already be in flight).
			select {
			case res = <-frec.resp:
			default:
				panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
			}
		}
		ret := s.followerVerdict(t, sl, name, args, res, waitStart, at)
		dspan.End(ret)
		return ret
	}
	if rec.local {
		// User-space call: execute in the follower's own window.
		// lib.Call records the follower's enter/exit events itself.
		ret := s.mon.lib.Call(t, name, args)
		dspan.End(ret)
		return ret
	}

	// Pipelined record: decode and apply the leader's result snapshot.
	emuMark := s.lr.Mark()
	ret, errno, bufs, rerr := decodeResultRecord(rec.result)
	if rerr != nil {
		s.drainDiverged(t, sl, Alarm{
			Reason: AlarmCallMismatch, CallIndex: rec.idx,
			LeaderCall: lname, FollowerCall: name,
			Detail: fmt.Sprintf("corrupt IPC result record: %v", rerr),
		}, "ipc-corruption")
	}
	copied, faulted := s.applyResult(t, sl, name, rec.idx, largs, args, bufs...)
	if lr != nil {
		lr.Add(ledger.PhaseEmulate, fv, cls,
			costs.LockstepCopyPerByte*cyclesOf(copied), emuMark, uint64(copied))
	}
	s.emulatedBytes.Add(uint64(copied))
	if obsRec != nil {
		obsRec.Record(obs.EvEmulated, fv, t.TID(), name, uint64(copied), 0, ret)
		obsRec.Metrics().Add("lockstep.emulated.bytes", uint64(copied))
		obsRec.RecordInAt(at.ts, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name, at.a0, at.a1, 0)
		obsRec.RecordIn(t.Fn(), obs.EvLibcExit, fv, t.TID(), name, 0, 0, ret)
	}
	if faulted && s.mon.contain() {
		// The follower's result buffer is gone; it cannot keep up.
		dspan.End(ret)
		s.mon.detachFollower(s, sl, "emulation-fault")
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	}
	t.SetErrno(errno)
	dspan.End(ret)
	return ret
}

// dequeueRecord takes the next leader record off the slot's ring, blocking
// until the leader publishes one. The ring is checked before (and after)
// the leaderDone signal: all appends happen-before leaderDone closes, and
// select picks ready cases at random, so a tail record must not be
// mistaken for a sequence overrun.
func (s *session) dequeueRecord(t *machine.Thread, sl *followerSlot, name string) *leaderRecord {
	select {
	case rec := <-sl.ring:
		return rec
	default:
	}
	select {
	case rec := <-sl.ring:
		return rec
	case <-sl.detachCh:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	case <-s.leaderDone:
		select {
		case rec := <-sl.ring:
			return rec
		default:
		}
		s.leaderGone(t, sl, name) // never returns
		return nil
	}
}

// drainDiverged raises a drain-time divergence alarm from a follower
// slot's goroutine and severs that slot per the policy. When other slots
// remain live, the slot disagreeing with the leader's record is implicitly
// outvoted (the leader plus the agreeing slots form the majority), so the
// alarm is re-marked AlarmOutvoted. Only the follower's own thread may be
// snapshotted here — the leader is running ahead concurrently. Never
// returns.
func (s *session) drainDiverged(t *machine.Thread, sl *followerSlot, a Alarm, cause string) {
	a.Function, a.Variant = s.fn, VariantID(sl.id)
	if s.liveAttached() > 1 {
		a.Reason = AlarmOutvoted
	}
	s.mon.raiseAlarm(a, s.mon.followerSnapshots(sl.id, t)...)
	s.diverged.Store(true)
	if a.Reason == AlarmOutvoted {
		if obsRec := s.mon.rec; obsRec != nil {
			obsRec.Metrics().Inc("vote.follower_outvoted")
		}
	}
	s.mon.severFromFollower(s, sl, t, cause)
}

// followerTimedOut raises the drain-time deadline alarm with the stalled
// call's own ordinal and severs the slot per the policy. Never returns.
func (s *session) followerTimedOut(t *machine.Thread, sl *followerSlot, name string, ordinal uint64, lag clock.Cycles) {
	s.mon.raiseAlarm(Alarm{
		Reason: AlarmRendezvousTimeout, CallIndex: ordinal, Function: s.fn,
		FollowerCall: name, Variant: VariantID(sl.id),
		Detail: fmt.Sprintf("follower stalled %d cycles against a %d-cycle rendezvous deadline",
			lag, s.mon.opts.RendezvousDeadline),
	}, s.mon.followerSnapshots(sl.id, t)...)
	s.diverged.Store(true)
	s.mon.rec.Metrics().Inc("rendezvous.timeout")
	s.mon.severFromFollower(s, sl, t, "rendezvous-timeout")
}

// captureOutputs snapshots the buffer the leader's call wrote through one
// of its pointer arguments — the one table of per-call output-buffer rules
// (Section 3.3, Table 1), for the strict rendezvous and the pipelined
// result record alike. A pipelined leader captures at call time, so the
// record is immune to the leader overwriting the buffer while it runs
// ahead. delta is the target slot's window shift: epoll_data entries that
// point into the leader's space are rebased into that slot's window here,
// while the leader's heap watermark still reflects the moment of the call.
// The zero emuBuf means the call wrote no buffer.
func (s *session) captureOutputs(name string, args []uint64, ret uint64, delta int64) emuBuf {
	as := s.mon.m.AddressSpace()
	grab := func(argIdx, n int) emuBuf {
		if n <= 0 {
			return emuBuf{}
		}
		src := mem.Addr(argAt(args, argIdx))
		if src == 0 {
			return emuBuf{}
		}
		buf := make([]byte, n)
		if err := as.ReadAt(src, buf); err != nil {
			return emuBuf{}
		}
		return emuBuf{argIdx: argIdx, data: buf}
	}
	retN := 0
	if int64(ret) > 0 {
		retN = int(int64(ret))
	}
	switch name {
	case "read", "recv":
		return grab(1, retN)
	case "stat", "fstat":
		return grab(1, 24)
	case "gettimeofday":
		return grab(0, 16)
	case "time":
		return grab(0, 8)
	case "localtime_r":
		return grab(1, 64)
	case "getsockopt":
		return grab(2, 8)
	case "ioctl":
		// Special: the third argument is emulated only when it looks like
		// a pointer into the process's address space (Section 3.3).
		if s.inLeaderSpace(mem.Addr(argAt(args, 2))) {
			return grab(2, 8)
		}
	case "epoll_wait", "epoll_pwait":
		// Special: copy the events array, rebasing epoll_data entries that
		// are pointers into the leader's space (Section 3.3).
		src := mem.Addr(argAt(args, 1))
		data := make([]byte, 0, retN*16)
		for i := 0; i < retN; i++ {
			var entry [16]byte
			if err := as.ReadAt(src+mem.Addr(i*16), entry[:]); err != nil {
				break
			}
			d := fromLE(entry[8:])
			if s.inLeaderSpace(mem.Addr(d)) {
				toLE(entry[8:], uint64(int64(d)+delta))
			}
			data = append(data, entry[:]...)
		}
		if len(data) > 0 {
			return emuBuf{argIdx: 1, data: data}
		}
	}
	return emuBuf{} // accept4's peer-address buffer is unused by the simulated apps
}

// applyResult writes output-buffer snapshots into the follower's own
// argument buffers. A follower buffer that cannot take the copy raises
// AlarmEmulationFault and reports faulted. The per-byte copy cost is
// charged to t: the follower thread in pipelined mode, off the leader's
// critical path, or nil in strict mode, where the copy happens inside the
// rendezvous.
func (s *session) applyResult(t *machine.Thread, sl *followerSlot, name string, idx uint64, largs, fargs []uint64, bufs ...emuBuf) (copied int, faulted bool) {
	as := s.mon.m.AddressSpace()
	costs := s.mon.m.Costs()
	for _, b := range bufs {
		dst := mem.Addr(argAt(fargs, b.argIdx))
		if dst == 0 || len(b.data) == 0 {
			continue
		}
		if err := as.WriteAt(dst, b.data); err != nil {
			// The follower's destination buffer is unmapped or unwritable
			// — a corrupted follower. Attribute it precisely so replay
			// diffing can tell it apart from the generic divergence the
			// stale data would cause later.
			s.mon.raiseAlarm(Alarm{
				Reason: AlarmEmulationFault, CallIndex: idx, Function: s.fn,
				LeaderCall: name, Variant: VariantID(sl.id),
				Detail: fmt.Sprintf("emulation copy of %d bytes into follower buffer %#x failed: %v",
					len(b.data), dst, err),
			})
			s.diverged.Store(true)
			faulted = true
			continue
		}
		_ = as.CopyTaint(dst, mem.Addr(argAt(largs, b.argIdx)), len(b.data))
		s.mon.m.ChargeThread(t, costs.LockstepCopyPerByte*cyclesOf(len(b.data)))
		if s.mon.opts.Policy == PolicyRollback {
			// The kernel-sourced bytes just landed in the follower's
			// buffer; log them so a rollback can replay the post-snapshot
			// libc tail. Each snapshot is owned by its capture or its
			// decoded record and never reused.
			s.mon.redo.Append(idx, name, dst, b.data)
		}
		copied += len(b.data)
	}
	return copied, faulted
}

func argAt(a []uint64, i int) uint64 {
	if i >= 0 && i < len(a) {
		return a[i]
	}
	return 0
}
