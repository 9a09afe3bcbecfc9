package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smvx/internal/libc"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// callResult modes.
const (
	modeEmulated = iota + 1
	modeLocal
	modeAbort
	modeDetach
)

// callRecord is a follower's half of one lockstep rendezvous, sent to the
// leader over the (simulated shared-memory) IPC channel. wire is the
// varint-framed encoding of (name, args) — what actually crosses the ring;
// the leader decodes it rather than trusting the in-memory fields. thread
// is the follower's machine thread: while the follower blocks on resp the
// leader may snapshot it for forensics (the send on req established the
// happens-before edge).
type callRecord struct {
	name   string
	args   []uint64
	wire   []byte
	thread *machine.Thread
	resp   chan callResult
	// lag is how many cycles the follower charged since its previous
	// rendezvous — its own work getting here. Unlike a shared-counter
	// elapsed-time measurement it does not depend on how the variants'
	// goroutines interleave, so the deadline verdict is deterministic.
	lag clock.Cycles
}

// callResult is the leader's reply: either the emulated result, an
// instruction to execute locally (user-space calls), or an abort.
type callResult struct {
	mode  int
	ret   uint64
	errno kernel.Errno
}

// followerSlot is one follower variant's seat in the variant set: its
// address-space window (delta), thread identity, IPC lanes (the strict
// rendezvous channel and the pipelined run-ahead ring with its own drain
// cursor), and per-slot lifecycle state (death, policy detach).
type followerSlot struct {
	id    int   // 1-based slot index; window sits at id*Delta
	delta int64 // this slot's address-window shift

	tid    int
	thread *kernel.Thread

	req  chan *callRecord   // strict-mode rendezvous lane
	ring chan *leaderRecord // pipelined run-ahead lane

	// drained counts records this slot has verified; fCycles is the slot
	// thread's cycle total at its previous rendezvous. Both are touched
	// only by the slot's own goroutine (or by the leader while the slot is
	// parked on a rendezvous reply).
	drained uint64
	fCycles clock.Cycles

	deadOnce sync.Once
	dead     chan struct{}
	err      error

	detachOnce sync.Once
	detachCh   chan struct{}
}

// markDead records the slot's termination (normal or crash) and wakes the
// leader if it is blocked on a rendezvous with this slot.
func (sl *followerSlot) markDead(err error) {
	sl.deadOnce.Do(func() {
		sl.err = err
		close(sl.dead)
	})
}

// detached reports whether the policy severed this slot from lockstep.
func (sl *followerSlot) detached() bool {
	select {
	case <-sl.detachCh:
		return true
	default:
		return false
	}
}

// drainPending clears any rendezvous slot the follower published before
// the detach, replying with the detach verdict so it never blocks on resp.
func (sl *followerSlot) drainPending() {
	for {
		select {
		case rec := <-sl.req:
			rec.resp <- callResult{mode: modeDetach}
		default:
			return
		}
	}
}

// session is one active protected region: the leader plus the variant
// set's follower slots in lockstep. Channels model the shared-memory IPC
// ring with its mutexes and condition variables (Section 3.2).
type session struct {
	mon   *Monitor
	fn    string
	delta int64 // base window shift; slot k sits at k*delta

	leaderTID int
	slots     []*followerSlot

	leaderDone chan struct{}

	// Pipelined lockstep state (see pipeline.go): each slot's ring is the
	// bounded run-ahead queue of leader call records; the lag window is
	// bounded by the slowest slot's cursor (a full ring blocks the leader).
	pipelined bool

	// Containment state (see policy.go): timedOut is closed when a
	// rendezvous deadline blows; watchStop ends the watchdog goroutine at
	// region exit. waitingSince is the leader's current rendezvous wait
	// start (cycles+1; 0 = not waiting), polled by the watchdog.
	timeoutOnce  sync.Once
	timedOut     chan struct{}
	watchOnce    sync.Once
	watchStop    chan struct{}
	waitingSince atomic.Int64

	leaderOnly bool // degraded session that never had a follower
	restarted  bool // session whose followers are a policy re-clone
	abortable  bool // region entered via Invoke: a guarded frame can catch a mid-flight abort

	// Rollback state (PolicyRollback; see snapshot.go): snapped marks that
	// this region captured its entry checkpoint (leader goroutine only);
	// rollbackCause holds the root-cause ordinal of the region's first
	// alarm, stored as ordinal+1 so zero means "no alarm yet".
	snapped       bool
	rollbackCause atomic.Uint64

	calls         atomic.Uint64
	emulatedBytes atomic.Uint64
	diverged      atomic.Bool

	// lr is this region's cost-ledger bucket (nil when no ledger is
	// attached; every method on a nil Region is a free no-op).
	lr *ledger.Region

	// Rendezvous scratch for the call in flight, leader goroutine only:
	// the attached slots and their ballots, sized by the variant-set bound
	// so that no rendezvous allocates for its own bookkeeping.
	slotBuf   [MaxVariants - 1]*followerSlot
	ballotBuf [MaxVariants - 1]ballot
}

func newSession(mon *Monitor, fn string, delta int64, leaderTID int) *session {
	s := &session{
		mon:        mon,
		fn:         fn,
		delta:      delta,
		leaderTID:  leaderTID,
		leaderDone: make(chan struct{}),
		timedOut:   make(chan struct{}),
		watchStop:  make(chan struct{}),
		pipelined:  mon.opts.Lockstep == LockstepPipelined,
		lr:         mon.led.Region(fn),
	}
	n := mon.numFollowers()
	s.slots = make([]*followerSlot, n)
	for i := 0; i < n; i++ {
		s.slots[i] = &followerSlot{
			id:       i + 1,
			delta:    delta * int64(i+1),
			req:      make(chan *callRecord),
			ring:     make(chan *leaderRecord, mon.opts.LagWindow),
			dead:     make(chan struct{}),
			detachCh: make(chan struct{}),
		}
	}
	return s
}

// attached returns the slots the policy has not severed, in slot order,
// in the session's scratch buffer (valid until the leader's next call).
func (s *session) attached() []*followerSlot {
	out := s.slotBuf[:0]
	for _, sl := range s.slots {
		if !sl.detached() {
			out = append(out, sl)
		}
	}
	return out
}

// allSlotsDead reports whether every slot's thread has terminated.
func (s *session) allSlotsDead() bool {
	for _, sl := range s.slots {
		select {
		case <-sl.dead:
		default:
			return false
		}
	}
	return true
}

// liveAttached counts slots that are neither detached nor dead.
func (s *session) liveAttached() int {
	n := 0
	for _, sl := range s.slots {
		if sl.detached() {
			continue
		}
		select {
		case <-sl.dead:
		default:
			n++
		}
	}
	return n
}

// slotByTID maps a thread ID to its follower slot (nil for the leader or
// unrelated threads). The slot count is tiny; a linear scan beats a map.
func (s *session) slotByTID(tid int) *followerSlot {
	for _, sl := range s.slots {
		if sl.tid == tid && tid != 0 {
			return sl
		}
	}
	return nil
}

// rejectFollower answers a diverging rendezvous per the policy: kill-both
// aborts the follower with ErrDivergence (the paper's behaviour),
// containment detaches it. Detach bookkeeping runs before the reply so the
// backoff timestamp is read while the follower is still parked on resp.
func (s *session) rejectFollower(sl *followerSlot, rec *callRecord, cause string) {
	if s.mon.contain() {
		s.mon.detachFollower(s, sl, cause)
		rec.resp <- callResult{mode: modeDetach}
		return
	}
	rec.resp <- callResult{mode: modeAbort}
}

// tripTimeout wakes whoever is blocked on the session's rendezvous.
func (s *session) tripTimeout() {
	s.timeoutOnce.Do(func() { close(s.timedOut) })
}

// stopWatch ends the deadline watchdog at region exit.
func (s *session) stopWatch() {
	s.watchOnce.Do(func() { close(s.watchStop) })
}

// Watchdog tuning: the poll interval, and how many consecutive polls with a
// frozen virtual clock (leader waiting, no cycles charged anywhere) trip
// the deadline early.
const (
	watchdogPoll        = 2 * time.Millisecond
	watchdogFrozenPolls = 250
)

// watch is the rendezvous deadline watchdog: a real-time poller that trips
// the session's timeout when the leader has waited past the virtual-cycle
// deadline, or — the frozen-clock breaker — when the leader is waiting and
// virtual time has stopped advancing entirely (a follower hung off-CPU
// charges no cycles, so a purely virtual deadline would never fire).
// Stalls that do charge cycles are caught deterministically when the
// rendezvous completes (see rendezvous); the watchdog covers followers
// that never arrive at all.
func (s *session) watch(deadline clock.Cycles) {
	ticker := time.NewTicker(watchdogPoll)
	defer ticker.Stop()
	frozenFor := 0
	var lastWait int64
	var lastNow clock.Cycles
	for {
		select {
		case <-s.watchStop:
			return
		case <-ticker.C:
		}
		if s.allSlotsDead() {
			return
		}
		w := s.waitingSince.Load()
		now := s.mon.m.Counter().Cycles()
		if w == 0 {
			frozenFor = 0
			lastWait = 0
			continue
		}
		if now-clock.Cycles(w-1) >= deadline {
			s.tripTimeout()
			return
		}
		if w == lastWait && now == lastNow {
			frozenFor++
			if frozenFor >= watchdogFrozenPolls {
				s.tripTimeout()
				return
			}
		} else {
			frozenFor = 0
		}
		lastWait, lastNow = w, now
	}
}

// leaderCall runs the leader's side of one lockstep libc call: a full
// rendezvous with every attached follower slot (see rendezvous).
// Pipelined sessions branch into the run-ahead engine (pipeline.go).
func (s *session) leaderCall(t *machine.Thread, name string, args []uint64) uint64 {
	if s.pipelined {
		return s.leaderCallPipelined(t, name, args)
	}
	idx := s.calls.Add(1)
	att := s.attached()
	if len(att) == 0 {
		// Degraded single-variant mode after a policy detach: no
		// rendezvous to charge or wait for. Under rollback the detach means
		// a follower faulted — unwind instead of running un-replicated.
		s.maybeAbortRegion(t, name, idx)
		return s.mon.lib.Call(t, name, args)
	}
	return s.rendezvous(t, name, args, idx, att, false)
}

// ballot is one follower slot's half of a rendezvous: the lane its record
// arrives on (the slot's strict lane, or a barrier record's reply), the
// record, and — decoded once — the call it carries.
type ballot struct {
	slot *followerSlot
	lane chan *callRecord
	rec  *callRecord
	name string
	args []uint64
}

// rendezvous is the leader's one rendezvous engine, run for every strict
// call and every pipelined barrier: collect each slot's record into the
// session's ballot buffer, hold it against the deadline, decode it once,
// compare — pairwise against a lone follower ballot, by majority vote with
// more — then execute the call once and emulate its results to the
// agreeing slots. A barrier first publishes its record on each slot's
// ring; the slot hands its own record back once everything before it has
// drained.
//
// A rendezvous that starts with a single slot keeps the paper's pair
// discipline where it differs from the vote:
//   - a blown strict deadline severs the slot at once instead of granting
//     pipelineGrace;
//   - the elapsed wait counts against the deadline next to the slot's lag;
//   - the timeout against a missing slot carries the leader's snapshot;
//   - a slot that never delivers skips the completion accounting, and a
//     slot the leader severs leaves the call to run without unwinding the
//     region here (the next call does).
func (s *session) rendezvous(t *machine.Thread, name string, args []uint64, idx uint64, slots []*followerSlot, barrier bool) uint64 {
	pair := len(slots) == 1
	entry := s.mon.m.Costs().LockstepRendezvous * clock.Cycles(len(slots))
	s.mon.m.ChargeThread(t, entry)
	var span obs.RendezvousSpan
	if obsRec := s.mon.rec; obsRec != nil {
		if barrier {
			obsRec.Metrics().Inc(obs.MetricLockstepBarrier)
		}
		span = obsRec.BeginRendezvousSpan(obs.VariantLeader, t.TID(), name,
			uint64(libc.CategoryOf(name)))
	}
	// The wait starts before a barrier record is appended, so it folds in
	// any backpressure the record hit on a full ring.
	waitStart := s.mon.m.Counter().Cycles()
	ballots, ringMissed := s.openLanes(t, name, args, idx, slots, barrier, pair)
	s.waitingSince.Store(int64(waitStart) + 1)
	ballots, missed := s.collect(t, name, idx, ballots, barrier, pair)
	s.waitingSince.Store(0)
	if pair && len(ballots) == 0 {
		// The lone slot died or severed itself — under rollback the
		// leader's own control flow is now suspect, so unwind — or it
		// missed the deadline and was severed above.
		if !ringMissed && !missed {
			s.maybeAbortRegion(t, name, idx)
		}
		ret := s.mon.lib.Call(t, name, args)
		span.End(ret)
		return ret
	}
	wait := s.mon.m.Counter().Cycles() - waitStart
	phase := ledger.PhaseRendezvous
	if barrier {
		phase = ledger.PhaseBarrier
	}
	s.settle(t, name, phase, entry, wait, 0)

	// Deadline verdicts per arrival: a slot that arrived but stalled past
	// the deadline is severed. Its own lag (cycles since its previous
	// rendezvous) is the deterministic detector, independent of how the
	// goroutines interleaved; with a lone slot the elapsed wait is a
	// backstop for pathological multi-thread charging.
	if d := s.mon.opts.RendezvousDeadline; d > 0 {
		kept := ballots[:0]
		for _, b := range ballots {
			late := b.rec.lag
			if pair && late <= d && wait > d {
				late = wait
			}
			if late <= d {
				kept = append(kept, b)
				continue
			}
			detail := fmt.Sprintf("variant %d arrived %d cycles into a %d-cycle rendezvous deadline",
				b.slot.id, late, d)
			if pair {
				detail = fmt.Sprintf("follower arrived %d cycles into a %d-cycle rendezvous deadline", late, d)
			}
			s.reject(t, &b, Alarm{
				Reason: AlarmRendezvousTimeout, CallIndex: idx,
				LeaderCall: name, FollowerCall: b.rec.name, Detail: detail,
			}, "rendezvous.timeout", "rendezvous-timeout")
		}
		ballots = kept
	}
	ret := s.resolve(t, name, args, idx, ballots, pair)
	span.End(ret)
	return ret
}

// openLanes fills the session's ballot buffer with one lane per slot. A
// strict rendezvous listens on each slot's own lane; a barrier publishes
// its record on each slot's ring and listens on the record's reply. A slot
// the barrier cannot reach casts no ballot: a dead one marks the region
// diverged, and one whose ring stayed full past the deadline is severed
// with a timeout (reported as missed).
func (s *session) openLanes(t *machine.Thread, name string, args []uint64, idx uint64, slots []*followerSlot, barrier, pair bool) (lanes []ballot, missed bool) {
	lanes = s.ballotBuf[:0]
	var wire []byte
	for _, sl := range slots {
		if !barrier {
			lanes = append(lanes, ballot{slot: sl, lane: sl.req})
			continue
		}
		mshMark := s.lr.Mark()
		if wire == nil {
			wire = encodeCallRecord(name, args)
		}
		rec := &leaderRecord{
			idx: idx, name: name, wire: wire,
			cat: libc.CategoryOf(name), barrier: true,
			reply: make(chan *callRecord, 1),
		}
		if lr := s.lr; lr != nil {
			lr.Add(ledger.PhaseMarshal, obs.VariantLeader, ledger.ClassOf(name),
				0, mshMark, uint64(len(rec.wire)))
		}
		switch s.appendRecord(t, sl, rec) {
		case appendOK:
			lanes = append(lanes, ballot{slot: sl, lane: rec.reply})
		case appendDead:
			s.diverged.Store(true)
		case appendTimedOut:
			if pair {
				s.timeOut(t, sl, name, idx, true, s.missedDetail(sl, pair, barrier))
			} else {
				s.enqueueTimedOut(t, sl, name, idx)
			}
			missed = true
		}
	}
	return lanes, missed
}

// collect waits for each lane's record in slot order and compacts the
// ballots that arrived in place. Once the session deadline trips, each
// remaining slot is granted pipelineGrace (a lone strict follower none);
// a slot that still has not delivered is declared wedged and severed, and
// missed reports that. A slot that dies instead marks the region
// diverged; only barrier lanes watch for a slot severing itself at drain
// time.
func (s *session) collect(t *machine.Thread, name string, idx uint64, lanes []ballot, barrier, pair bool) (arrived []ballot, missed bool) {
	arrived = lanes[:0]
	graced := false
	for _, b := range lanes {
		sl := b.slot
		var detach chan struct{}
		if barrier {
			detach = sl.detachCh
		}
		if !graced {
			select {
			case b.rec = <-b.lane:
			case <-sl.dead:
				s.diverged.Store(true)
			case <-detach:
			case <-s.timedOut:
				graced = true
			}
		}
		if b.rec == nil && graced {
			expired := pair && !barrier
			if !expired {
				select {
				case b.rec = <-b.lane:
				case <-sl.dead:
					s.diverged.Store(true)
				case <-detach:
				case <-time.After(pipelineGrace):
					expired = true
				}
			}
			if expired {
				s.timeOut(t, sl, name, idx, pair, s.missedDetail(sl, pair, barrier))
				missed = true
			}
		}
		if b.rec != nil {
			arrived = append(arrived, b)
		}
	}
	return arrived, missed
}

// missedDetail words the timeout against a slot the leader waited on in
// vain: a lone follower keeps the pair wording, a slot of a larger set is
// named by its index.
func (s *session) missedDetail(sl *followerSlot, pair, barrier bool) string {
	d := s.mon.opts.RendezvousDeadline
	switch {
	case pair:
		return fmt.Sprintf("follower missed the %d-cycle rendezvous deadline", d)
	case barrier:
		return fmt.Sprintf("variant %d missed the %d-cycle rendezvous deadline at a barrier", sl.id, d)
	default:
		return fmt.Sprintf("variant %d missed the %d-cycle rendezvous deadline", sl.id, d)
	}
}

// settle books one completed leader step: entry is the fixed cost charged
// on entering phase, wait the cycles the leader then spent blocked. The
// rendezvous.leader.cycles observation is exactly the sum of the two
// ledger charges — the ledger/histogram reconciliation invariant. An
// enqueue also records the run-ahead ring depth; its blocked wait was
// already booked by appendRecord.
func (s *session) settle(t *machine.Thread, name string, phase ledger.Phase, entry, wait clock.Cycles, depth int) {
	enqueue := phase == ledger.PhaseEnqueue
	if !enqueue {
		t.AddWaitCycles(wait)
	}
	if obsRec := s.mon.rec; obsRec != nil {
		m := obsRec.Metrics()
		if !enqueue {
			m.Observe("lockstep.wait.cycles", uint64(wait))
		}
		m.Observe(obs.MetricRendezvousLeaderCycles, uint64(entry+wait))
		if enqueue {
			m.SetGauge(obs.MetricPipelineDepth, float64(depth))
		}
		obsRec.ObserveSeries(obs.SeriesRendezvous, uint64(entry+wait))
		if enqueue {
			obsRec.ObserveSeries(obs.SeriesPipelineDepth, uint64(depth))
		}
	}
	if lr := s.lr; lr != nil {
		cls := ledger.ClassOf(name)
		lr.Add(phase, obs.VariantLeader, cls, entry, ledger.Mark{}, 0)
		lr.Add(ledger.PhaseWait, obs.VariantLeader, cls, wait, ledger.Mark{}, 0)
	}
}

// resolve finishes a rendezvous once the ballots are in: checkpoint the
// quiescent set, decode each record once, compare, then execute the call
// once and emulate its results to the agreeing slots. With no ballot left
// the leader runs the call un-replicated — after unwinding the region
// under rollback, unless the leader itself just severed a lone follower.
func (s *session) resolve(t *machine.Thread, name string, args []uint64, idx uint64, ballots []ballot, pair bool) uint64 {
	if len(ballots) > 0 && s.mon.snapshotDue(s) {
		// A quiescent anchor point: every arrived follower is parked at
		// the same ordinal (in pipelined mode this is a barrier, so the
		// rings are drained) and no emulation is in flight. The checkpoint
		// lands before this call's divergence checks — a rendezvous that
		// fails them below was still quiescent when captured, and the
		// budget catches a checkpoint that keeps absorbing the same
		// divergence.
		s.mon.captureCheckpoint(s, t, ballots, name, idx)
	}
	// Lockstep check 0: each record must decode. One that does not frame
	// cannot be compared, which is itself a divergence (that slot's
	// monitor half wrote garbage).
	cmpMark := s.lr.Mark()
	var wireBytes uint64
	valid := ballots[:0]
	for _, b := range ballots {
		wireBytes += uint64(len(b.rec.wire))
		var err error
		if b.name, b.args, err = decodeCallRecord(b.rec.wire); err != nil {
			s.reject(t, &b, Alarm{
				Reason: AlarmCallMismatch, CallIndex: idx, LeaderCall: name,
				Detail: fmt.Sprintf("corrupt IPC call record: %v", err),
			}, "", "ipc-corruption")
			continue
		}
		valid = append(valid, b)
	}
	switch len(valid) {
	case 0:
		if !pair {
			s.maybeAbortRegion(t, name, idx)
		}
		return s.mon.lib.Call(t, name, args)
	case 1:
		if !s.pairwise(t, name, args, idx, &valid[0]) {
			return s.mon.lib.Call(t, name, args)
		}
	default:
		var leaderWon bool
		if valid, leaderWon = s.vote(t, name, args, idx, valid); !leaderWon {
			s.maybeAbortRegion(t, name, idx)
			return s.mon.lib.Call(t, name, args)
		}
	}

	obsRec := s.mon.rec
	cat := libc.CategoryOf(name)
	if obsRec != nil {
		obsRec.Record(obs.EvLockstep, obs.VariantLeader, t.TID(), name, uint64(cat), idx, 0)
		obsRec.Metrics().Inc("lockstep.category." + cat.Slug())
	}
	if lr := s.lr; lr != nil {
		// Decode+compare charges no virtual cycles (the cost model folds it
		// into the rendezvous entry); the ledger still counts occurrences,
		// allocations, and the wire volume verified.
		lr.Add(ledger.PhaseCompare, obs.VariantLeader, ledger.ClassOf(name),
			0, cmpMark, wireBytes)
	}
	ret := s.mon.lib.Call(t, name, args)
	if cat == libc.CatLocal {
		// User-space call: each variant executes in its own space.
		for _, w := range valid {
			w.rec.resp <- callResult{mode: modeLocal}
		}
		return ret
	}
	// Leader-only execution; each agreeing follower receives the return
	// value, errno, and output buffers over its own lane. Replies go out
	// only once the emulation is booked, so no follower runs ahead of it.
	errno := t.Errno()
	var esp obs.EmulationSpan
	if obsRec != nil {
		esp = obsRec.BeginEmulationSpan(obs.VariantLeader, t.TID(), name, uint64(cat))
	}
	emuMark := s.lr.Mark()
	var faulted [MaxVariants - 1]bool
	total := 0
	for i, w := range valid {
		copied, efault := s.emulate(name, args, w.args, ret, idx, w.slot.delta)
		total += copied
		faulted[i] = efault
	}
	esp.End(uint64(total))
	if lr := s.lr; lr != nil {
		lr.Add(ledger.PhaseEmulate, obs.VariantLeader, ledger.ClassOf(name),
			s.mon.m.Costs().LockstepCopyPerByte*cyclesOf(total), emuMark, uint64(total))
	}
	s.emulatedBytes.Add(uint64(total))
	if obsRec != nil {
		obsRec.Record(obs.EvEmulated, obs.VariantLeader, t.TID(), name, uint64(total), 0, ret)
		obsRec.Metrics().Add("lockstep.emulated.bytes", uint64(total))
	}
	for i, w := range valid {
		if faulted[i] && s.mon.contain() {
			// The follower's result buffer is gone; it cannot keep up.
			s.mon.detachFollower(s, w.slot, "emulation-fault")
			w.rec.resp <- callResult{mode: modeDetach}
			continue
		}
		w.rec.resp <- callResult{mode: modeEmulated, ret: ret, errno: errno}
	}
	return ret
}

// pairwise is the paper's two-party check against the one follower ballot
// left (Section 3.3): the same libc function, then the same non-pointer
// argument values. A mismatch rejects the ballot with the pairwise alarm.
func (s *session) pairwise(t *machine.Thread, name string, args []uint64, idx uint64, b *ballot) bool {
	if b.name != name {
		s.reject(t, b, Alarm{
			Reason: AlarmCallMismatch, CallIndex: idx, LeaderCall: name, FollowerCall: b.name,
			Detail: fmt.Sprintf("leader called %s, follower called %s", name, b.name),
		}, "", "call-mismatch")
		return false
	}
	if bad, li, fi := scalarMismatch(name, args, b.args); bad {
		s.reject(t, b, Alarm{
			Reason: AlarmArgMismatch, CallIndex: idx, LeaderCall: name, FollowerCall: b.name,
			Detail: fmt.Sprintf("%s arg mismatch: leader %#x vs follower %#x", name, li, fi),
		}, "", "arg-mismatch")
		return false
	}
	return true
}

// vote resolves the leader's ballot against two or more follower ballots
// by majority (see elect). A follower outside the winning class is
// outvoted and rejected per the policy. If the followers outvote the
// leader, the whole set is suspect: the leader is the only variant wired
// to the kernel, so it still executes, but the alarm names variant 0 and
// every follower is rejected. vote returns the followers that agree with
// the leader, and whether the leader won.
func (s *session) vote(t *machine.Thread, name string, args []uint64, idx uint64, valid []ballot) ([]ballot, bool) {
	var buf [MaxVariants]Ballot
	votes := append(buf[:0], Ballot{Variant: 0, Name: name, Args: args, Valid: true})
	for _, b := range valid {
		votes = append(votes, Ballot{Variant: VariantID(b.slot.id), Name: b.name, Args: b.args, Valid: true})
	}
	var class [MaxVariants]int
	winner, majority := elect(votes, class[:len(votes)])
	if winner != 0 {
		maj := votes[winner]
		s.mon.raiseAlarm(Alarm{
			Reason: AlarmOutvoted, CallIndex: idx, Function: s.fn,
			LeaderCall: name, FollowerCall: maj.Name, Variant: 0,
			Detail: fmt.Sprintf("leader outvoted %d-to-1 at %s: majority called %s",
				majority, name, maj.Name),
		})
		s.diverged.Store(true)
		s.mon.rec.Metrics().Inc("vote.leader_outvoted")
		for _, b := range valid {
			s.rejectFollower(b.slot, b.rec, "outvoted")
		}
		return nil, false
	}
	winners := valid[:0]
	for i, b := range valid {
		if class[i+1] == winner {
			winners = append(winners, b)
			continue
		}
		s.reject(t, &b, Alarm{
			Reason: AlarmOutvoted, CallIndex: idx, LeaderCall: name, FollowerCall: b.name,
			Detail: fmt.Sprintf("variant %d outvoted %d-to-1 at call %s: it called %s",
				b.slot.id, majority, name, b.name),
		}, "vote.follower_outvoted", "outvoted")
	}
	return winners, true
}

// reject raises a divergence alarm against an arrived ballot — filling in
// the region and the slot, with the leader's and that follower's registers
// for the report — counts it under metric (when set), and answers the slot
// per the policy.
func (s *session) reject(t *machine.Thread, b *ballot, a Alarm, metric, cause string) {
	a.Function, a.Variant = s.fn, VariantID(b.slot.id)
	s.mon.raiseAlarm(a, s.rendezvousSnapshots(t, b)...)
	s.diverged.Store(true)
	if metric != "" {
		s.mon.rec.Metrics().Inc(metric)
	}
	s.rejectFollower(b.slot, b.rec, cause)
}

// timeOut raises AlarmRendezvousTimeout against a slot that never
// delivered its record and severs it from lockstep. leaderSnap attaches
// the leader's registers — the follower is not parked where it could be
// read.
func (s *session) timeOut(t *machine.Thread, sl *followerSlot, name string, idx uint64, leaderSnap bool, detail string) {
	var snaps []obs.ThreadSnapshot
	if leaderSnap && s.mon.rec != nil {
		snaps = []obs.ThreadSnapshot{s.mon.snapshot("leader", t)}
	}
	s.mon.raiseAlarm(Alarm{
		Reason: AlarmRendezvousTimeout, CallIndex: idx, Function: s.fn,
		LeaderCall: name, Variant: VariantID(sl.id), Detail: detail,
	}, snaps...)
	s.diverged.Store(true)
	s.mon.rec.Metrics().Inc("rendezvous.timeout")
	s.mon.detachFollower(s, sl, "rendezvous-timeout")
}

// rendezvousSnapshots captures the leader's and one arrived follower's
// thread states for the forensics report, the follower labelled by its
// slot. The follower is blocked on its reply, so reading its thread is
// race-free (see callRecord). Snapshots are captured only when a recorder
// is attached.
func (s *session) rendezvousSnapshots(leader *machine.Thread, b *ballot) []obs.ThreadSnapshot {
	if s.mon.rec == nil {
		return nil
	}
	snaps := []obs.ThreadSnapshot{s.mon.snapshot("leader", leader)}
	if b.rec.thread != nil {
		snaps = append(snaps, s.mon.snapshot(obs.FollowerVariant(b.slot.id).String(), b.rec.thread))
	}
	return snaps
}

// followerCall runs one follower slot's side: publish the call on the
// slot's lane, wait for the leader's verdict. Pipelined sessions drain the
// slot's rendezvous ring instead (pipeline.go).
func (s *session) followerCall(t *machine.Thread, sl *followerSlot, name string, args []uint64) uint64 {
	if s.pipelined {
		return s.followerCallPipelined(t, sl, name, args)
	}
	fv := obs.FollowerVariant(sl.id)
	cyc := t.UserCycles()
	mshMark := s.lr.Mark()
	rec := &callRecord{
		name: name, args: args, wire: encodeCallRecord(name, args),
		thread: t, resp: make(chan callResult, 1),
		lag: cyc - sl.fCycles,
	}
	sl.fCycles = cyc
	lr := s.lr
	var cls ledger.Class
	var fwaitStart clock.Cycles
	if lr != nil {
		cls = ledger.ClassOf(name)
		lr.Add(ledger.PhaseMarshal, fv, cls, 0, mshMark, uint64(len(rec.wire)))
		fwaitStart = s.mon.m.Counter().Cycles()
	}
	obsRec := s.mon.rec
	var arriveTS clock.Cycles
	var a0, a1 uint64
	if obsRec != nil {
		arriveTS = s.mon.m.Counter().Cycles()
		if len(args) > 0 {
			a0 = args[0]
		}
		if len(args) > 1 {
			a1 = args[1]
		}
	}
	select {
	case sl.req <- rec:
		res := <-rec.resp
		if lr != nil {
			lr.Add(ledger.PhaseWait, fv, cls,
				s.mon.m.Counter().Cycles()-fwaitStart, ledger.Mark{}, 0)
		}
		switch res.mode {
		case modeLocal:
			// lib.Call records the follower's enter/exit events itself.
			return s.mon.lib.Call(t, name, args)
		case modeEmulated:
			// The follower never reaches libc for this call, so record the
			// pair here: enter back-dated to the rendezvous arrival, exit
			// when the emulated result lands.
			if obsRec != nil {
				obsRec.RecordInAt(arriveTS, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name, a0, a1, 0)
				obsRec.RecordIn(t.Fn(), obs.EvLibcExit, fv, t.TID(), name, 0, 0, res.ret)
			}
			t.SetErrno(res.errno)
			return res.ret
		case modeDetach:
			// The policy severed this follower; wind it down without a
			// fresh divergence panic.
			if obsRec != nil {
				obsRec.RecordInAt(arriveTS, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name, a0, a1, 0)
			}
			panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
		default:
			if obsRec != nil {
				obsRec.RecordInAt(arriveTS, t.Fn(), obs.EvLibcEnter, fv, t.TID(), name, a0, a1, 0)
			}
			panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
		}
	case <-sl.detachCh:
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
	case <-s.leaderDone:
		if sl.detached() {
			panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDetached})
		}
		// The leader already left the region: the follower is executing
		// calls the leader never made. The leader is no longer in the
		// region, so only the follower's own thread may be snapshotted.
		var snaps []obs.ThreadSnapshot
		if obsRec != nil {
			snaps = []obs.ThreadSnapshot{s.mon.snapshot(fv.String(), t)}
		}
		s.mon.raiseAlarm(Alarm{
			Reason: AlarmSequenceLength, CallIndex: s.calls.Load(), Function: s.fn,
			FollowerCall: name, Variant: VariantID(sl.id),
			Detail: fmt.Sprintf("follower issued %s after leader finished the region", name),
		}, snaps...)
		s.diverged.Store(true)
		panic(&machine.Crash{Thread: t.Name(), IP: t.IP(), Err: ErrDivergence})
	}
}

// emulate copies the leader's output buffers into one follower's
// corresponding buffers, translating embedded pointers for the special
// category, and returns bytes copied plus whether a follower destination
// buffer was unwritable (AlarmEmulationFault raised). delta is the target
// slot's window shift — pointer rebasing lands in that slot's window.
// Copies run with monitor privileges (raw address-space access — the
// monitor's PKRU has every key enabled).
func (s *session) emulate(name string, leaderArgs, followerArgs []uint64, ret uint64, idx uint64, delta int64) (int, bool) {
	as := s.mon.m.AddressSpace()
	costs := s.mon.m.Costs()
	faulted := false
	arg := func(a []uint64, i int) uint64 {
		if i < len(a) {
			return a[i]
		}
		return 0
	}
	copyBuf := func(argIdx, n int) int {
		if n <= 0 {
			return 0
		}
		src := mem.Addr(arg(leaderArgs, argIdx))
		dst := mem.Addr(arg(followerArgs, argIdx))
		if src == 0 || dst == 0 {
			return 0
		}
		buf := make([]byte, n)
		if err := as.ReadAt(src, buf); err != nil {
			return 0
		}
		if err := as.WriteAt(dst, buf); err != nil {
			// The follower's destination buffer is unmapped or
			// unwritable — a corrupted follower. Attribute it precisely
			// so replay diffing can tell it apart from the generic
			// divergence the stale data would cause later.
			s.mon.raiseAlarm(Alarm{
				Reason: AlarmEmulationFault, CallIndex: idx, Function: s.fn,
				LeaderCall: name, Variant: VariantID(int(delta / s.delta)),
				Detail: fmt.Sprintf("emulation copy of %d bytes into follower buffer %#x failed: %v",
					n, dst, err),
			})
			s.diverged.Store(true)
			faulted = true
			return 0
		}
		_ = as.CopyTaint(dst, src, n)
		s.mon.m.ChargeThread(nil, costs.LockstepCopyPerByte*cyclesOf(n))
		if s.mon.opts.Policy == PolicyRollback {
			// The kernel-sourced bytes just landed in the follower's
			// buffer; log them so a rollback can replay the post-snapshot
			// libc tail (buf is freshly allocated per call — safe to keep).
			s.mon.redo.Append(idx, name, dst, buf)
		}
		return n
	}

	retN := 0
	if int64(ret) > 0 {
		retN = int(int64(ret))
	}
	copied := 0
	switch name {
	case "read", "recv":
		copied = copyBuf(1, retN)
	case "stat", "fstat":
		copied = copyBuf(1, 24)
	case "gettimeofday":
		copied = copyBuf(0, 16)
	case "time":
		copied = copyBuf(0, 8)
	case "localtime_r":
		copied = copyBuf(1, 64)
	case "getsockopt":
		copied = copyBuf(2, 8)
	case "ioctl":
		// Special: the third argument is emulated only when it looks like
		// a pointer into the process's address space (Section 3.3).
		if s.inLeaderSpace(mem.Addr(arg(leaderArgs, 2))) {
			copied = copyBuf(2, 8)
		}
	case "epoll_wait", "epoll_pwait":
		// Special: copy the events array; epoll_data entries that are
		// pointers into the leader's space must be rebased into the
		// follower's window (Section 3.3).
		n := retN
		src := mem.Addr(arg(leaderArgs, 1))
		dst := mem.Addr(arg(followerArgs, 1))
		total := 0
		for i := 0; i < n; i++ {
			var entry [16]byte
			if err := as.ReadAt(src+mem.Addr(i*16), entry[:]); err != nil {
				break
			}
			data := fromLE(entry[8:])
			if s.inLeaderSpace(mem.Addr(data)) {
				data = uint64(int64(data) + delta)
				toLE(entry[8:], data)
			}
			if err := as.WriteAt(dst+mem.Addr(i*16), entry[:]); err != nil {
				break
			}
			if s.mon.opts.Policy == PolicyRollback {
				s.mon.redo.Append(idx, name, dst+mem.Addr(i*16), append([]byte(nil), entry[:]...))
			}
			total += 16
		}
		s.mon.m.ChargeThread(nil, costs.LockstepCopyPerByte*cyclesOf(total))
		copied = total
	}
	return copied, faulted
}

// inLeaderSpace reports whether v falls inside the leader's image or heap —
// the "falls within the process's address space" test for special-category
// emulation.
func (s *session) inLeaderSpace(v mem.Addr) bool {
	img := s.mon.img
	if v >= img.Base && v < img.End() {
		return true
	}
	if h := s.mon.lib.Heap(0); h != nil {
		if v >= s.mon.leaderHeapBase() && v < s.mon.lib.HeapWatermark(0) {
			return true
		}
	}
	return false
}

// scalarMismatch compares the non-pointer arguments of a libc call between
// variants, returning the first differing pair.
func scalarMismatch(name string, leader, follower []uint64) (bad bool, l, f uint64) {
	mask := scalarArgMask(name)
	n := len(leader)
	if len(follower) < n {
		n = len(follower)
	}
	if len(leader) != len(follower) {
		return true, uint64(len(leader)), uint64(len(follower))
	}
	for i := 0; i < n && i < len(mask); i++ {
		if mask[i] && leader[i] != follower[i] {
			return true, leader[i], follower[i]
		}
	}
	return false, 0, 0
}

// ScalarArgMask returns, per argument position of a libc call, whether the
// value is a scalar (comparable across variants) as opposed to a pointer
// (whose value legitimately differs between the variants' non-overlapping
// address windows). Positions beyond the mask are not comparable. This is
// the rendezvous check's own table, exported so offline analysis
// (internal/obs/replay) applies the exact same pointer semantics when
// diffing a recorded leader stream against its follower stream.
func ScalarArgMask(name string) []bool { return scalarArgMask(name) }

// ScalarRet reports whether a libc call's return value is a scalar,
// comparable across variants. Allocation and buffer calls return pointers
// into the calling variant's own window, so their values differ between
// variants by construction.
func ScalarRet(name string) bool {
	switch name {
	case "malloc", "calloc", "realloc", "memcpy", "memset", "localtime_r":
		return false
	default:
		return true
	}
}

// scalarArgMask returns, per argument position, whether the value is a
// scalar (comparable across variants) as opposed to a pointer (whose value
// legitimately differs between non-overlapping address spaces).
func scalarArgMask(name string) []bool {
	switch name {
	case "open", "mkdir":
		return []bool{false, true}
	case "stat":
		return []bool{false, false} // path and stat buffer: both pointers
	case "close", "epoll_create", "socket", "random", "time", "free",
		"strlen", "atoi", "localtime_r":
		return []bool{false, false}
	case "read", "recv", "write", "send", "writev":
		return []bool{true, false, true}
	case "fstat":
		return []bool{true, false}
	case "gettimeofday":
		return []bool{false, true}
	case "sendfile":
		return []bool{true, true, false, true}
	case "bind", "listen", "connect", "shutdown":
		return []bool{true, true}
	case "setsockopt":
		return []bool{true, true, true}
	case "getsockopt", "ioctl":
		return []bool{true, true, false}
	case "epoll_ctl":
		return []bool{true, true, true, false}
	case "epoll_wait":
		return []bool{true, false, true, true}
	case "epoll_pwait":
		return []bool{true, false, true, true, true}
	case "malloc":
		return []bool{true}
	case "calloc":
		return []bool{true, true}
	case "realloc":
		return []bool{false, true}
	case "memcpy", "memset":
		return []bool{false, false, true}
	case "strcmp":
		return []bool{false, false}
	case "strncmp":
		return []bool{false, false, true}
	case "snprintf":
		return []bool{false, true, false}
	default:
		return nil
	}
}

func cyclesOf(n int) clock.Cycles {
	if n < 0 {
		return 0
	}
	return clock.Cycles(n)
}

func fromLE(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func toLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
