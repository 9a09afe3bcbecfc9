package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/core"
	"smvx/internal/obs"
	"smvx/internal/obs/ledger"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/workload"
)

const (
	port     = 8080
	pagePath = "/index.html"
	docRoot  = "/var/www"
	pwnedDir = "/pwned"
)

// simTap reads request spans off the flight recorder: every served
// request's exact accept→close duration on the server's elapsed clock
// (env.Wall, as for sim_rps), and the simulated clocks at the first accept
// and the last close. EvRequestStart carries the request id in Arg0 and
// EvRequestEnd in Ret. The recorder calls it under its lock, so its
// fields are read only after the recorder lock has been taken once more
// once the worker has exited.
type simTap struct {
	wall *clock.Counter

	started   bool
	firstHost time.Time
	firstSeq  uint64
	firstCPU  clock.Cycles
	firstWall clock.Cycles
	lastWall  clock.Cycles
	open      map[uint64]clock.Cycles // request id -> env.Wall at accept
	served    []uint64                // env.Wall cycles, accept → close
}

func (t *simTap) TapEvent(e obs.Event) {
	switch e.Kind {
	case obs.EvRequestStart:
		now := t.wall.Cycles()
		if !t.started {
			t.started = true
			t.firstHost = time.Now()
			t.firstSeq = e.Seq
			t.firstCPU = e.TS
			t.firstWall = now
		}
		t.open[e.Arg0] = now
	case obs.EvRequestEnd:
		now := t.wall.Cycles()
		if start, ok := t.open[e.Ret]; ok && e.Fn == "served" {
			t.served = append(t.served, uint64(now-start))
		}
		delete(t.open, e.Ret)
		t.lastWall = now
	}
}

// episode is one boot of the whole stack followed by one replay of the
// run's traffic.
type episode struct {
	// correctness
	attempted, failed int
	failures          []string

	// host
	setup     time.Duration
	traffic   time.Duration
	hostLat   []time.Duration // per benign RequestPath
	cpu       time.Duration   // getrusage user+sys over the traffic
	allocs    uint64          // Go heap allocations over the traffic
	allocB    uint64          // Go heap bytes allocated over the traffic
	peakHeap  uint64          // Go heap object bytes, max sampled
	gcCycles  uint32
	gcPauseNs uint64

	// sim
	served     int
	simLat     []uint64 // cycles, per served request
	wallCycles uint64   // server elapsed, first accept → last close
	cpuCycles  uint64   // all variants, first accept → worker exit

	// per-layer counts
	events, evicted uint64
	syscalls        uint64
	residentKB      int
	heapEnd         uint64
	alarms          int
	rollbacks       int
	snapshots       int
	reports         []core.RegionReport
	led             *ledger.Ledger
	rendezvousSum   uint64
	tr              *tracer
}

// fail counts one wrong output and keeps the first few descriptions.
func (ep *episode) fail(format string, args ...any) {
	ep.failed++
	if len(ep.failures) < 5 {
		ep.failures = append(ep.failures, fmt.Sprintf(format, args...))
	}
}

// heapSample reads the Go heap's object bytes.
var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func heapObjects() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

var allocSample = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func heapAllocs() (objects, bytes uint64) {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64(), allocSample[1].Value.Uint64()
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF into a valid struct cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runEpisode boots nginx (protected with w's posture, or unprotected when
// native), replays tf against it with one closed-loop client, checks every
// response, and collects the measurements. exploit is the CVE-2013-2028
// attack tf's exploit operations send. tr, when non-nil, installs the
// timing wrappers and the cost ledger.
func runEpisode(w workloadDef, tf traffic, exploit *workload.Exploit, seed int64, native bool, tr *tracer) (*episode, error) {
	ep := &episode{tr: tr}
	ops := tf.ops
	if native {
		// Unprotected vulnerable nginx would be hijacked by the exploits:
		// the native anchor replays the benign requests only.
		ops = make([]op, tf.benign)
	}

	t0 := time.Now()
	k := kernel.New(clock.DefaultCosts(), seed)
	rec := obs.NewRecorder(obs.Config{})
	cfg := nginx.Config{
		Port:        port,
		DocRoot:     docRoot,
		Version:     w.version,
		AccessLog:   w.accessLog,
		MaxRequests: len(ops),
		Track:       &apputil.RequestTracker{App: "nginx", Rec: rec, Fleet: obs.NewFleet()},
	}
	if !native {
		cfg.Protect = w.protect
	}
	srv := nginx.NewServer(cfg)
	env, err := boot.NewEnv(k, srv.Program(), boot.WithSeed(seed), boot.WithRecorder(rec))
	if err != nil {
		return nil, err
	}
	k.FS().WriteFile(docRoot+pagePath, tf.page)
	tap := &simTap{wall: env.Wall, open: make(map[uint64]clock.Cycles)}
	rec.SetTap(tap)
	tBoot := time.Now()

	var mon *core.Monitor
	var probe *mvxProbe
	if !native {
		opts := []core.Option{
			core.WithSeed(seed), core.WithRecorder(rec),
			core.WithPolicy(w.policy), core.WithLockstepMode(w.mode),
			core.WithVariants(w.variants),
		}
		if w.lag > 0 {
			opts = append(opts, core.WithLagWindow(w.lag))
		}
		if tr != nil {
			ep.led = ledger.New()
			ep.led.SetRun(w.mode.String(), w.policy.String(), w.lag)
			ep.led.EnableAllocProbe()
			opts = append(opts, core.WithLedger(ep.led))
		}
		mon = core.New(env.Machine, env.LibC, opts...)
		if err := mon.Setup(); err != nil {
			return nil, fmt.Errorf("monitor setup: %w", err)
		}
		probe = &mvxProbe{mon: mon, env: env, tr: tr}
		if tr != nil {
			env.Machine.SetInterposer(&interposeProbe{mon: mon, tr: tr, lib: env.LibC})
			env.Machine.SetLibcObserver(tr.observeLibc)
		}
		srv.SetMVX(probe)
	}
	th, err := env.MainThread()
	if err != nil {
		return nil, err
	}
	tSetup := time.Now()

	// The client's own preparation and the host baselines run before the
	// worker starts, and setup_s leaves out this interval.
	client := k.NewProcess(clock.NewCounter())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	allocs0, allocB0 := heapAllocs()
	tReady := time.Now()

	done := make(chan error, 1)
	go func() {
		err := srv.Run(th)
		if err != nil {
			// Close a dead worker's descriptors, as the kernel does for a
			// crashed process, so a client waiting on one sees EOF instead
			// of hanging. Descriptor numbers are never reused.
			for fd := 0; fd < 4*len(ops)+64 && env.Proc.OpenFDCount() > 0; fd++ {
				env.Proc.Close(fd)
			}
		}
		done <- err
	}()

	start := time.Now()
	var werr error
	exited := false
	for i, o := range ops {
		ep.attempted++
		if tr != nil {
			tr.beginOp(i)
		}
		if o.attack {
			monBefore := mon.Rollbacks()
			seenBefore := probe.rollbacks.Load()
			resp, err := exploit.DeliverAndRead(client, port)
			switch {
			case err != nil:
				ep.fail("op %d exploit: %v", i, err)
			case len(resp) != 0:
				ep.fail("op %d exploit: answered %q", i, firstLine(resp))
			case probe.rollbacks.Load() != seenBefore+1:
				ep.fail("op %d exploit: Invoke did not report ErrRegionRolledBack", i)
			case mon.Rollbacks() != monBefore+1:
				ep.fail("op %d exploit: monitor rollback count %d, want %d", i, mon.Rollbacks(), monBefore+1)
			}
		} else {
			s := time.Now()
			resp, err := workload.RequestPath(client, port, tf.req)
			ep.hostLat = append(ep.hostLat, time.Since(s))
			if err != nil {
				ep.fail("op %d: %v", i, err)
			} else if msg := checkPage(resp, tf.page); msg != "" {
				ep.fail("op %d: %s", i, msg)
			}
		}
		if tr != nil {
			tr.endOp(i)
		}
		if h := heapObjects(); h > ep.peakHeap {
			ep.peakHeap = h
		}
		if ep.failed > 0 {
			select {
			case werr = <-done:
				exited = true
			default:
			}
		}
		if exited {
			// The worker is gone: the remaining operations cannot be served.
			rest := len(ops) - 1 - i
			ep.attempted += rest
			ep.failed += rest
			break
		}
	}
	ep.traffic = time.Since(start)
	ep.cpu = cpuTime() - cpu0
	allocs1, allocB1 := heapAllocs()
	ep.allocs, ep.allocB = allocs1-allocs0, allocB1-allocB0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ep.gcCycles = ms1.NumGC - ms0.NumGC
	ep.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	if !exited {
		select {
		case werr = <-done:
		case <-time.After(workerExitTimeout):
			return nil, fmt.Errorf("worker did not exit within %v of the last request", workerExitTimeout)
		}
	}
	if werr != nil {
		ep.fail("worker exit: %v", werr)
	}
	if k.FS().DirExists(pwnedDir) {
		ep.fail("%s exists: an exploit's payload ran", pwnedDir)
	}

	// Taking the recorder lock orders every tap call before these reads.
	ep.events = rec.Total()
	ep.evicted = rec.Evicted()
	if !tap.started {
		return nil, fmt.Errorf("no request reached the server")
	}
	ep.setup = tSetup.Sub(t0) + tap.firstHost.Sub(tReady)
	ep.simLat = tap.served
	ep.served = len(tap.served)
	ep.events -= tap.firstSeq - 1
	ep.wallCycles = uint64(tap.lastWall - tap.firstWall)
	ep.cpuCycles = uint64(env.Counter.Cycles() - tap.firstCPU)
	if want := tf.benign; ep.served != want {
		ep.fail("served %d requests, want %d", ep.served, want)
	}
	ep.syscalls = env.Proc.SyscallTotal()
	ep.residentKB = env.ResidentKB()
	ep.heapEnd = env.LibC.HeapLiveBytes(0)
	if mon != nil {
		ep.alarms = len(mon.Alarms())
		ep.rollbacks = mon.Rollbacks()
		ep.snapshots = mon.Snapshots()
		if tf.attacks > 0 {
			if got := int(probe.rollbacks.Load()); got != tf.attacks {
				ep.fail("%d rolled-back regions seen at Invoke, want %d", got, tf.attacks)
			}
		}
		if tr != nil {
			ep.reports = mon.Reports()
			ep.rendezvousSum = rec.Metrics().Histogram(obs.MetricRendezvousLeaderCycles).Sum
			tr.bootNs = int64(tBoot.Sub(t0))
			tr.coreSetupNs = int64(tSetup.Sub(tBoot))
			tr.firstAcceptNs = int64(tap.firstHost.Sub(tReady))
		}
	}
	return ep, nil
}

// hostSummary is a one-line account of the episode's host figures.
func (ep *episode) hostSummary() string {
	lat := make([]float64, len(ep.hostLat))
	for i, d := range ep.hostLat {
		lat[i] = float64(d) / float64(time.Microsecond)
	}
	return fmt.Sprintf("%.1f req/s, p50 %.0f us, p99 %.0f us, cpu %.0f us/req, set-up %.2f ms",
		ratio(float64(ep.served), ep.traffic.Seconds()), quantile(lat, 0.5), quantile(lat, 0.99),
		ratio(float64(ep.cpu)/float64(time.Microsecond), float64(ep.served)), float64(ep.setup)/float64(time.Millisecond))
}

// workerExitTimeout bounds the wait for the worker after its last request.
const workerExitTimeout = 30 * time.Second

// checkPage verifies one response: HTTP 200 with a body byte-equal to the
// served page. It returns "" when the response is right.
func checkPage(resp, page []byte) string {
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
		return fmt.Sprintf("status line %q", firstLine(resp))
	}
	i := bytes.Index(resp, []byte("\r\n\r\n"))
	if i < 0 {
		return "no header terminator"
	}
	head, body := resp[:i], resp[i+4:]
	if !bytes.Contains(head, []byte("Content-Length: "+strconv.Itoa(len(page)))) {
		return "wrong Content-Length"
	}
	if !bytes.Equal(body, page) {
		return fmt.Sprintf("body of %d bytes differs from the %d-byte page", len(body), len(page))
	}
	return ""
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 60 {
		b = b[:60]
	}
	return string(b)
}
