package main

import (
	"errors"
	"sync/atomic"
	"time"

	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/libc"
	"smvx/internal/sim/machine"
)

// mvxProbe wraps the monitor as the server's machine.MVX. It always counts
// rolled-back regions (the exploit check); with a tracer it also times
// every Invoke from outside and samples the simulated clocks around it.
type mvxProbe struct {
	mon       *core.Monitor
	env       *boot.Env
	tr        *tracer
	rollbacks atomic.Int64
}

func (p *mvxProbe) Init(t *machine.Thread) error { return p.mon.Init(t) }

func (p *mvxProbe) Start(t *machine.Thread, fn string, args ...uint64) error {
	return p.mon.Start(t, fn, args...)
}

func (p *mvxProbe) End(t *machine.Thread) error { return p.mon.End(t) }

func (p *mvxProbe) Invoke(t *machine.Thread, fn string, args ...uint64) (uint64, error) {
	if p.tr == nil {
		ret, err := p.mon.Invoke(t, fn, args...)
		if errors.Is(err, machine.ErrRegionRolledBack) {
			p.rollbacks.Add(1)
		}
		return ret, err
	}
	sp := regionSpan{op: p.tr.cur.Load(), wall: uint64(p.env.Wall.Cycles()), cpu: uint64(p.env.Counter.Cycles())}
	p.tr.inRegion.Store(true)
	sp.start = p.tr.now()
	ret, err := p.mon.Invoke(t, fn, args...)
	sp.end = p.tr.now()
	p.tr.inRegion.Store(false)
	sp.wall = uint64(p.env.Wall.Cycles()) - sp.wall
	sp.cpu = uint64(p.env.Counter.Cycles()) - sp.cpu
	sp.creation = p.mon.LastCreation()
	if errors.Is(err, machine.ErrRegionRolledBack) {
		p.rollbacks.Add(1)
		sp.rolledBack = true
	}
	p.tr.addRegion(sp)
	return ret, err
}

// interposeProbe wraps the monitor as the machine's PLT interposer and
// times every intercepted libc call from outside.
type interposeProbe struct {
	mon *core.Monitor
	tr  *tracer
	lib *libc.LibC
}

func (p *interposeProbe) Intercept(t *machine.Thread, slot int, name string, args []uint64) uint64 {
	if p.tr.heapStart == 0 && name == "epoll_wait" && t.Bias() == 0 {
		p.tr.heapStart = p.lib.HeapLiveBytes(0)
	}
	start := p.tr.now()
	ret := p.mon.Intercept(t, slot, name, args)
	p.tr.addIntercept(t.Bias() != 0, start, p.tr.now())
	return ret
}

// span is one host-time interval in nanoseconds since the tracer origin.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// overlap is the length of s's interval that lies within o.
func (s span) overlap(o span) int64 {
	lo, hi := max(s.start, o.start), min(s.end, o.end)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// regionSpan is one MVX.Invoke: its host span, the request in flight when
// it began, and its simulated cost.
type regionSpan struct {
	span
	op         int32
	rolledBack bool
	wall, cpu  uint64 // env.Wall and env.Counter deltas, cycles
	creation   core.CreationStats
}

// interceptSpan is one leader-side Intercept.
type interceptSpan struct {
	span
	inRegion bool
}

// tracer keeps one episode's spans in memory. Request spans and leader
// intercepts are written by one goroutine each; follower intercepts come
// from every follower goroutine and are only summed.
type tracer struct {
	origin time.Time
	// cur is the index of the client operation in flight; spans recorded
	// on the server side carry it as their request id.
	cur      atomic.Int32
	inRegion atomic.Bool

	requests []span // indexed by op
	regions  []regionSpan
	leader   []interceptSpan

	followerNs    atomic.Int64
	followerCalls atomic.Int64

	libcLeader, libcFollower atomic.Int64

	// heapStart is the leader's live libc heap at its first epoll_wait,
	// once the worker's start-up allocations are done. Leader goroutine.
	heapStart uint64

	// setup spans, host nanoseconds
	bootNs, coreSetupNs, firstAcceptNs int64
}

func newTracer(ops int) *tracer {
	tr := &tracer{origin: time.Now(), requests: make([]span, ops)}
	tr.cur.Store(-1)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

func (tr *tracer) beginOp(i int) {
	tr.cur.Store(int32(i))
	tr.requests[i].start = tr.now()
}

func (tr *tracer) endOp(i int) { tr.requests[i].end = tr.now() }

// addRegion and the leader half of addIntercept run on the server's
// leader goroutine only.
func (tr *tracer) addRegion(sp regionSpan) { tr.regions = append(tr.regions, sp) }

func (tr *tracer) addIntercept(follower bool, start, end int64) {
	if follower {
		tr.followerNs.Add(end - start)
		tr.followerCalls.Add(1)
		return
	}
	tr.leader = append(tr.leader, interceptSpan{span: span{start, end}, inRegion: tr.inRegion.Load()})
}

// observeLibc is the machine's libc observer: it counts every PLT call by
// variant.
func (tr *tracer) observeLibc(t *machine.Thread, _ string) {
	if t.Bias() != 0 {
		tr.libcFollower.Add(1)
	} else {
		tr.libcLeader.Add(1)
	}
}
