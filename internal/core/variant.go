package core

import (
	"errors"
	"fmt"

	"smvx/internal/obs"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/image"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// clonedSections lists the image sections replicated into each follower
// window (Figure 5: shift and clone).
var clonedSections = []string{
	image.SecText, image.SecRodata, image.SecData, image.SecBSS,
	image.SecPLT, image.SecGotPLT,
}

// leaderHeapBase returns the base of the leader's heap region.
func (mo *Monitor) leaderHeapBase() mem.Addr {
	base, _ := mo.lib.HeapBounds(0)
	return base
}

// Start implements machine.MVX: the mvx_start() call. It resolves the
// protected function from the profile, tears down any previous followers,
// clones the image and heap into every follower slot's window, relocates
// pointers, and launches the follower variant threads.
func (mo *Monitor) Start(t *machine.Thread, fn string, args ...uint64) error {
	mo.mu.Lock()
	if !mo.setup {
		mo.mu.Unlock()
		return ErrNotSetup
	}
	if mo.session != nil {
		mo.mu.Unlock()
		return ErrRegionActive
	}
	mo.mu.Unlock()

	// Resolve the protected function name through the profile's symbol
	// table, as mvx_start does with the /tmp profile file (Section 3.2).
	if _, ok := mo.profile.Lookup(fn); !ok {
		return fmt.Errorf("smvx: mvx_start: function %q not in profile", fn)
	}
	if _, ok := mo.img.Lookup(fn); !ok {
		return fmt.Errorf("smvx: mvx_start: function %q not in image", fn)
	}

	// Containment gate: after a policy detach the affected slots are down.
	// PolicyRestartVariant re-clones the whole set here — at region
	// entry, where variant creation is already paid for — while the budget
	// and backoff allow; with every slot down and no restart available the
	// region runs leader-only; with only some slots down the up slots keep
	// lockstep and the down ones stay quarantined.
	restarted := false
	upSlot := make([]bool, mo.numFollowers())
	for i := range upSlot {
		upSlot[i] = true
	}
	if mo.contain() {
		mo.mu.Lock()
		down := append([]bool(nil), mo.slotDown...)
		used := mo.restartsUsed
		nextAt := mo.nextRestartAt
		mo.mu.Unlock()
		anyDown, allDown := false, true
		for _, d := range down {
			anyDown = anyDown || d
			allDown = allDown && d
		}
		if anyDown {
			canRestart := mo.opts.Policy == PolicyRestartVariant &&
				used < mo.opts.RestartBudget && mo.m.Counter().Cycles() >= nextAt
			switch {
			case canRestart:
				mo.mu.Lock()
				mo.restartsUsed++
				for i := range mo.slotDown {
					mo.slotDown[i] = false
				}
				mo.degraded = false
				mo.mu.Unlock()
				restarted = true
			case allDown:
				return mo.startLeaderOnly(t, fn)
			default:
				for i, d := range down {
					if d {
						upSlot[i] = false
					}
				}
			}
		}
	}

	delta := mo.opts.Delta
	as := mo.m.AddressSpace()
	ctr := mo.m.Counter()
	var stats CreationStats
	mo.rec.Record(obs.EvRegionStart, obs.VariantLeader, t.TID(), fn, 0, 0, 0)
	// End-to-end mvx_start span (variant.create.cycles); the Table 2 phase
	// sum is observed separately as variant.creation.cycles below.
	createSpan := mo.rec.BeginVariantCreateSpan(t.TID(), fn)

	upDeltas := make([]int64, 0, mo.numFollowers())
	for k := 1; k <= mo.numFollowers(); k++ {
		if upSlot[k-1] {
			upDeltas = append(upDeltas, delta*int64(k))
		}
	}

	mo.mu.Lock()
	reuse := mo.opts.ReuseVariant && mo.variantReady
	mo.mu.Unlock()

	var newBases []mem.Addr
	if reuse {
		// Section 5 mitigation: the followers' mappings persist across
		// regions; only their contents are refreshed and re-scanned, off
		// the critical path (charged to total CPU, not wall time). Fresh
		// stacks are still needed per region.
		mo.destroyStacks()
		mo.mu.Lock()
		newBases = append([]mem.Addr{}, mo.followerBases...)
		mo.mu.Unlock()

		wall := as.GetWallCounter()
		as.SetWallCounter(nil)
		err := mo.refreshVariant(upDeltas, &stats)
		as.SetWallCounter(wall)
		if err != nil {
			return err
		}
	} else {
		// Reclaim any previous mappings before recreating from scratch.
		mo.destroyFollower()

		// Step 1 — process duplication: clone every image section plus
		// the heap into each slot's shifted window ("copy+move" in
		// Table 2).
		mark := ctr.Cycles()
		heapBase, heapSize := mo.lib.HeapBounds(0)
		for k := 1; k <= mo.numFollowers(); k++ {
			if !upSlot[k-1] {
				continue
			}
			dk := delta * int64(k)
			for _, secName := range clonedSections {
				sec, ok := mo.img.Section(secName)
				if !ok {
					continue
				}
				clone, err := as.CloneRegionShifted(sec.Addr, dk, fmt.Sprintf("v%d:%s", k+1, secName))
				if err != nil {
					return fmt.Errorf("smvx: clone %s: %w", secName, err)
				}
				newBases = append(newBases, clone.Base)
				// Variant separation: each slot's regions carry that slot's
				// own key.
				if sec.Perm&mem.PermWrite != 0 {
					if err := as.SetRegionKey(clone.Base, mo.pkeyFollowers[k-1]); err != nil {
						return err
					}
				}
			}
			if heapSize > 0 {
				clone, err := as.CloneRegionShifted(heapBase, dk, fmt.Sprintf("v%d:heap", k+1))
				if err != nil {
					return fmt.Errorf("smvx: clone heap: %w", err)
				}
				newBases = append(newBases, clone.Base)
				if err := as.SetRegionKey(clone.Base, mo.pkeyFollowers[k-1]); err != nil {
					return err
				}
				if err := mo.lib.CloneHeap(0, dk, dk); err != nil {
					return fmt.Errorf("smvx: clone heap metadata: %w", err)
				}
			}
		}
		// Tag the leader's writable regions with the leader key so a
		// follower access through a stale pointer faults.
		for _, secName := range []string{image.SecData, image.SecBSS, image.SecGotPLT} {
			if sec, ok := mo.img.Section(secName); ok {
				if err := as.SetRegionKey(sec.Addr, mo.pkeyLeader); err != nil {
					return err
				}
			}
		}
		if heapSize > 0 {
			if err := as.SetRegionKey(heapBase, mo.pkeyLeader); err != nil {
				return err
			}
		}
		stats.DupCycles = ctr.Cycles() - mark

		// Step 2 — .data/.bss pointer relocation, per slot window. With
		// static hints (the alias-analysis narrowing of Section 3.4) only
		// the hinted globals' slots are scanned; otherwise the whole
		// sections are.
		mark = ctr.Cycles()
		for _, dk := range upDeltas {
			relocated, err := mo.relocateDataPointers(dk)
			if err != nil {
				return err
			}
			stats.PointersRelocated += relocated
		}
		stats.DataScanCycles = ctr.Cycles() - mark

		// Step 3 — heap pointer scan: every 8-byte-aligned slot up to the
		// allocation watermark (the dominant cost in Table 2), per window.
		mark = ctr.Cycles()
		if heapSize > 0 {
			for _, dk := range upDeltas {
				lo := mem.Addr(int64(heapBase) + dk)
				hi := mem.Addr(int64(mo.lib.HeapWatermark(0)) + dk)
				n, err := mo.relocateRange(lo, hi, dk)
				if err != nil {
					return err
				}
				stats.PointersRelocated += n
			}
		}
		stats.HeapScanCycles = ctr.Cycles() - mark
	}

	// Step 4 — clone() each follower thread and redirect it to the
	// protected function.
	s := newSession(mo, fn, delta, t.TID())
	s.restarted = restarted
	launched := make([]*followerSlot, 0, len(s.slots))
	for i, sl := range s.slots {
		if !upSlot[i] {
			// The slot stays quarantined this region: born detached and
			// dead so the rendezvous paths skip it.
			sl := sl
			sl.detachOnce.Do(func() { close(sl.detachCh) })
			sl.markDead(nil)
			continue
		}
		sl.tid = mo.m.AllocTID()
		launched = append(launched, sl)
	}

	mo.mu.Lock()
	mo.session = s
	mo.curRegion.Store(s.lr)
	mo.lastCreation = stats // clone cycles patched below
	mo.followerBases = append([]mem.Addr{}, newBases...)
	mo.variantReady = true
	mo.mu.Unlock()

	// The leader's PKRU now excludes every follower key.
	t.WRPKRU(mo.appPKRU(t))

	heapLo := mo.leaderHeapBase()
	heapHi := mo.lib.HeapWatermark(0)

	// Entry checkpoint: the follower clones are fully built but not yet
	// launched, so this is the region's one guaranteed quiescent anchor.
	// Strict mode re-captures at rendezvous cadence; pipelined mode only at
	// barriers — a region that diverges before any barrier rewinds here.
	if mo.snapshotDue(s) {
		mo.captureCheckpoint(s, t, nil, fn, 0)
	}

	cloneMark := ctr.Cycles()
	for _, sl := range launched {
		sl := sl
		dk := sl.delta
		ftid := sl.tid
		tname := "smvx-follower"
		if sl.id > 1 {
			tname = fmt.Sprintf("smvx-follower%d", sl.id)
		}
		fStackBase := mem.Addr(int64(mo.img.End())+dk) + 0x100_0000
		imgLo := mem.Addr(int64(mo.img.Base) + dk)
		imgHi := mem.Addr(int64(mo.img.End()) + dk)
		// Rebase pointer-looking arguments into this slot's window: the
		// protected function's argument variables (Listing 1) may point
		// into the leader's image or heap, and each follower must see its
		// own copy — the same address-range treatment the special
		// emulation category applies to epoll_data (Section 3.3).
		fargs := make([]uint64, len(args))
		for i, a := range args {
			v := mem.Addr(a)
			if (v >= mo.img.Base && v < mo.img.End()) ||
				(heapLo != 0 && v >= heapLo && v < heapHi) {
				fargs[i] = uint64(int64(a) + dk)
			} else {
				fargs[i] = a
			}
		}
		th := mo.m.Process().CloneThread(func() error {
			ft, err := mo.m.NewThreadAt(tname, ftid, fStackBase, followerStackPages, dk)
			if err != nil {
				err = fmt.Errorf("smvx: follower thread: %w", err)
				mo.raiseAlarm(Alarm{
					Reason: AlarmFollowerFault, Function: fn,
					Variant: VariantID(sl.id), Detail: err.Error(),
				})
				sl.markDead(err)
				return err
			}
			mo.mu.Lock()
			mo.followerStacks = append(mo.followerStacks, ft.StackBase())
			mo.mu.Unlock()
			if err := mo.m.AddressSpace().SetRegionKey(ft.StackBase(), mo.pkeyFollowers[sl.id-1]); err != nil {
				sl.markDead(err)
				return err
			}
			// The follower's view: only its own window is executable. The
			// leader's gadget addresses are "otherwise unmapped" here
			// (Section 4.2).
			ft.SetBackground(true)
			ft.SetExecWindow([2]mem.Addr{imgLo, imgHi})
			ft.WRPKRU(mo.appPKRU(ft))
			runErr := ft.Run(func(t *machine.Thread) { t.Call(fn, fargs...) })
			if runErr != nil && !errors.Is(runErr, ErrDetached) {
				// The fault is detected on the follower's own goroutine: the
				// leader is still running, so only the follower's thread state
				// may be read here. An ErrDetached death is just the policy
				// winding a severed follower down — no new alarm.
				var snaps []obs.ThreadSnapshot
				if mo.rec != nil {
					var fe *mem.FaultError
					if errors.As(runErr, &fe) {
						mo.rec.Record(obs.EvPageFault, obs.FollowerVariant(sl.id), ft.TID(),
							fe.Kind.String(), uint64(fe.Addr), 0, 0)
					}
					snaps = []obs.ThreadSnapshot{mo.snapshot(obs.FollowerVariant(sl.id).String(), ft)}
				}
				mo.raiseAlarm(Alarm{
					Reason: AlarmFollowerFault, CallIndex: s.calls.Load(),
					Function: fn, Variant: VariantID(sl.id), Detail: runErr.Error(),
				}, snaps...)
				if mo.contain() {
					mo.detachFollower(s, sl, "follower-fault")
				}
			}
			sl.markDead(runErr)
			return runErr
		})
		sl.thread = th
	}
	if d := mo.opts.RendezvousDeadline; d > 0 {
		go s.watch(d)
	}
	cloneCost := ctr.Cycles() - cloneMark
	if floor := mo.m.Costs().ThreadClone * clock.Cycles(len(launched)); cloneCost < floor {
		cloneCost = floor
	}

	mo.mu.Lock()
	mo.lastCreation.CloneCycles = cloneCost
	stats = mo.lastCreation
	mo.mu.Unlock()

	if rec := mo.rec; rec != nil {
		// The Table 2 phase breakdown of this mvx_start().
		for _, ph := range []struct {
			name   string
			cycles clock.Cycles
		}{
			{"dup", stats.DupCycles},
			{"data_scan", stats.DataScanCycles},
			{"heap_scan", stats.HeapScanCycles},
			{"clone", stats.CloneCycles},
		} {
			rec.Record(obs.EvVariantPhase, obs.VariantLeader, t.TID(), ph.name, uint64(ph.cycles), 0, 0)
		}
		m := rec.Metrics()
		m.Observe("variant.creation.cycles", uint64(stats.Total()))
		m.Add("variant.pointers_relocated", uint64(stats.PointersRelocated))
	}
	createSpan.End(uint64(stats.PointersRelocated))
	if restarted && len(launched) > 0 {
		mo.mu.Lock()
		n := mo.restartsUsed
		mo.mu.Unlock()
		mo.rec.Record(obs.EvFollowerRestarted, obs.VariantFollower, launched[0].tid, fn, uint64(n), 0, 0)
		mo.rec.Metrics().Inc("policy.follower_restarted")
	}
	return nil
}

// startLeaderOnly opens a degraded protected region with no followers: the
// policy detached (or could not yet restart) every other variant, so the
// leader runs single-variant — dMVX's detached mode. No clone work happens
// and lockstep calls go straight to libc. EvRegionStart carries Arg0=1 to
// mark the degraded entry.
func (mo *Monitor) startLeaderOnly(t *machine.Thread, fn string) error {
	s := newSession(mo, fn, mo.opts.Delta, t.TID())
	s.leaderOnly = true
	for _, sl := range s.slots {
		sl := sl
		sl.detachOnce.Do(func() { close(sl.detachCh) })
		sl.markDead(nil)
	}
	mo.mu.Lock()
	mo.session = s
	mo.curRegion.Store(s.lr)
	mo.mu.Unlock()
	t.WRPKRU(mo.appPKRU(t))
	mo.rec.Record(obs.EvRegionStart, obs.VariantLeader, t.TID(), fn, 1, 0, 0)
	mo.rec.Metrics().Inc("region.leader_only")
	return nil
}

// relocateDataPointers scans a follower window's .data and .bss clones and
// rebases pointers into leader ranges.
func (mo *Monitor) relocateDataPointers(delta int64) (int, error) {
	total := 0
	if len(mo.opts.ScanHints) > 0 {
		// Static-analysis narrowing: scan only the hinted globals.
		for _, name := range mo.opts.ScanHints {
			sym, ok := mo.img.Lookup(name)
			if !ok {
				continue
			}
			lo := mem.Addr(int64(sym.Addr) + delta)
			hi := lo + mem.Addr(sym.Size)
			n, err := mo.relocateRange(lo, hi, delta)
			if err != nil {
				return total, err
			}
			total += n
		}
		return total, nil
	}
	for _, secName := range []string{image.SecData, image.SecBSS} {
		sec, ok := mo.img.Section(secName)
		if !ok {
			continue
		}
		lo := mem.Addr(int64(sec.Addr) + delta)
		hi := lo + mem.Addr(sec.Size)
		n, err := mo.relocateRange(lo, hi, delta)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// relocateRange rebases every pointer-looking slot in [lo, hi) whose value
// falls inside the leader's image or heap.
func (mo *Monitor) relocateRange(lo, hi mem.Addr, delta int64) (int, error) {
	as := mo.m.AddressSpace()
	imgLo, imgHi := mo.img.Base, mo.img.End()
	heapLo := mo.leaderHeapBase()
	heapHi := mo.lib.HeapWatermark(0)
	hits := as.ScanPointers(lo, hi, func(v mem.Addr) bool {
		if v >= imgLo && v < imgHi {
			return true
		}
		return heapLo != 0 && v >= heapLo && v < heapHi
	})
	for _, h := range hits {
		nv := uint64(int64(h.Value) + delta)
		if err := as.Write64(h.Slot, nv); err != nil {
			return 0, fmt.Errorf("smvx: relocate %s: %w", h.Slot, err)
		}
	}
	return len(hits), nil
}

// End implements machine.MVX: the mvx_end() call. It waits for each
// follower via the wait() syscall — bounded by the rendezvous deadline, so
// a follower that never exits the region trips the watchdog instead of
// deadlocking mvx_end — merges the variants, records the region report, and
// leaves the followers' mappings in place (they are reclaimed by the next
// Start or by destroyFollower).
func (mo *Monitor) End(t *machine.Thread) error {
	mo.mu.Lock()
	s := mo.session
	mo.mu.Unlock()
	if s == nil {
		return ErrNoRegion
	}
	close(s.leaderDone)
	var followerErr error
	for _, sl := range s.slots {
		if sl.thread == nil {
			continue
		}
		done := mo.m.Process().WaitThreadCh(sl.thread)
		waitStart := mo.m.Counter().Cycles()
		s.waitingSince.Store(int64(waitStart) + 1)
		// Non-blocking pre-check: once timedOut has closed (an earlier slot
		// blew the deadline), the select below picks ready cases at random —
		// a slot that already finished must not be charged with a fresh
		// region-exit timeout.
		finished := false
		select {
		case <-done:
			finished = true
		default:
		}
		if !finished {
			select {
			case <-done:
				finished = true
			case <-s.timedOut:
			}
		}
		s.waitingSince.Store(0)
		var serr error
		if finished {
			serr = sl.err
		} else {
			if !sl.detached() {
				mo.raiseAlarm(Alarm{
					Reason: AlarmRendezvousTimeout, CallIndex: s.calls.Load(), Function: s.fn,
					Variant: VariantID(sl.id),
					Detail:  "follower failed to exit the region before the rendezvous deadline",
				})
				s.diverged.Store(true)
				mo.rec.Metrics().Inc("rendezvous.timeout")
			}
			mo.detachFollower(s, sl, "region-exit-timeout")
			serr = ErrRendezvousTimeout
		}
		if followerErr == nil && serr != nil {
			followerErr = serr
		}
	}
	s.stopWatch()
	// A pipelined follower that left the region early strands unverified
	// leader records on its ring — a sequence divergence even when nothing
	// faulted (strict mode reaches the same verdict via the slot's death at
	// the leader's next call).
	if s.pipelined {
		for _, sl := range s.slots {
			if len(sl.ring) > 0 {
				s.diverged.Store(true)
			}
		}
	}

	// Rollback recovery runs here — the severed followers have wound down,
	// the watchdog is stopped, and the leader is the only thread touching
	// the address space, so the in-place restore cannot race a variant.
	outcome := mo.maybeRollback(s, t.TID(), s.diverged.Load() || followerErr != nil)

	anyDetached := false
	for _, sl := range s.slots {
		if sl.detached() {
			anyDetached = true
		}
	}
	report := RegionReport{
		Function:          s.fn,
		LibcCalls:         s.calls.Load(),
		EmulatedBytes:     s.emulatedBytes.Load(),
		Diverged:          s.diverged.Load() || followerErr != nil,
		FollowerErr:       followerErr,
		Degraded:          s.leaderOnly || anyDetached,
		FollowerRestarted: s.restarted,
		RolledBack:        outcome == rollbackDone,
	}

	mo.mu.Lock()
	if !s.leaderOnly {
		report.Creation = mo.lastCreation
	}
	mo.regionCalls[s.fn] += report.LibcCalls
	mo.reports = append(mo.reports, report)
	mo.session = nil
	mo.curRegion.Store(nil)
	mo.mu.Unlock()

	if rec := mo.rec; rec != nil {
		rec.Record(obs.EvRegionEnd, obs.VariantLeader, t.TID(), s.fn, report.LibcCalls, 0, 0)
		m := rec.Metrics()
		m.Observe("region.libc_calls", report.LibcCalls)
		m.Add("region.emulated_bytes", report.EmulatedBytes)
		m.SetGauge("rss_kb", float64(mo.m.AddressSpace().ResidentKB()))
		if report.Degraded {
			m.Inc("region.degraded")
		}
		if report.RolledBack {
			m.Inc("region.rolled_back")
		}
	}
	if report.RolledBack {
		// Advisory, not fatal: the caller's thread is healthy, but any
		// external state tied to the undone region (an accepted connection
		// mid-request) must be discarded by whoever holds it.
		return machine.ErrRegionRolledBack
	}
	return nil
}

// Invoke implements machine.MVX: one protected region end-to-end —
// mvx_start, the guarded call, mvx_end. Unlike the raw Start/Call/End
// sequence, Invoke arms the region for a mid-flight monitor abort: under
// PolicyRollback a region whose followers have died is unwound back to this
// boundary at the leader's next rendezvous (see maybeAbortRegion) instead
// of running compromised to completion, and End's rollback restores the
// checkpoint before the caller resumes. Every other policy behaves exactly
// as the raw sequence. A Start failure degrades to an unprotected call,
// matching the evaluation applications' historical mvx_start handling.
func (mo *Monitor) Invoke(t *machine.Thread, fn string, args ...uint64) (uint64, error) {
	if err := mo.Start(t, fn, args...); err != nil {
		return t.Call(fn, args...), nil
	}
	mo.mu.Lock()
	if s := mo.session; s != nil {
		s.abortable = true
	}
	mo.mu.Unlock()
	ret, abort := t.CallGuarded(fn, args...)
	err := mo.End(t)
	if abort != nil && mo.rec != nil {
		mo.rec.Record(obs.EvRegionAbort, obs.VariantLeader, t.TID(), fn, 0, 0, 0)
	}
	return ret, err
}

// destroyFollower unmaps every follower variant's regions and drops their
// heaps, releasing the replicated RSS.
func (mo *Monitor) destroyFollower() {
	mo.destroyStacks()
	mo.mu.Lock()
	bases := mo.followerBases
	mo.followerBases = nil
	mo.variantReady = false
	mo.mu.Unlock()
	as := mo.m.AddressSpace()
	for _, b := range bases {
		_ = as.Unmap(b)
	}
	for k := 1; k <= mo.numFollowers(); k++ {
		mo.lib.DropHeap(mo.opts.Delta * int64(k))
	}
}

// destroyStacks unmaps the followers' stack regions (a fresh stack is
// created per region even under variant reuse).
func (mo *Monitor) destroyStacks() {
	mo.mu.Lock()
	stacks := mo.followerStacks
	mo.followerStacks = nil
	mo.mu.Unlock()
	as := mo.m.AddressSpace()
	for _, b := range stacks {
		_ = as.Unmap(b)
	}
}

// refreshVariant re-copies the leader's current state into the persistent
// follower mappings at each window shift in deltas and re-relocates
// pointers — the reuse path.
func (mo *Monitor) refreshVariant(deltas []int64, stats *CreationStats) error {
	as := mo.m.AddressSpace()
	ctr := mo.m.Counter()

	mark := ctr.Cycles()
	heapBase, heapSize := mo.lib.HeapBounds(0)
	for _, delta := range deltas {
		for _, secName := range clonedSections {
			sec, ok := mo.img.Section(secName)
			if !ok {
				continue
			}
			if err := as.RefreshClone(sec.Addr, delta); err != nil {
				return fmt.Errorf("smvx: refresh %s: %w", secName, err)
			}
		}
		if heapSize > 0 {
			if err := as.RefreshClone(heapBase, delta); err != nil {
				return fmt.Errorf("smvx: refresh heap: %w", err)
			}
			if err := mo.lib.CloneHeap(0, delta, delta); err != nil {
				return err
			}
		}
	}
	stats.DupCycles = ctr.Cycles() - mark

	mark = ctr.Cycles()
	for _, delta := range deltas {
		relocated, err := mo.relocateDataPointers(delta)
		if err != nil {
			return err
		}
		stats.PointersRelocated += relocated
	}
	stats.DataScanCycles = ctr.Cycles() - mark

	mark = ctr.Cycles()
	if heapSize > 0 {
		for _, delta := range deltas {
			lo := mem.Addr(int64(heapBase) + delta)
			hi := mem.Addr(int64(mo.lib.HeapWatermark(0)) + delta)
			n, err := mo.relocateRange(lo, hi, delta)
			if err != nil {
				return err
			}
			stats.PointersRelocated += n
		}
	}
	stats.HeapScanCycles = ctr.Cycles() - mark
	return nil
}
