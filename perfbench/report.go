package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"smvx/internal/sim/clock"
	"smvx/internal/workload"
)

const cyclesPerMicro = clock.FrequencyHz / 1e6

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's output: its metrics in report order and its
// correctness tally.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
	// sim holds the untraced and the traced pass's simulated metrics, for
	// the check that the timing wrappers leave simulated time alone.
	sim [2]map[string]float64
}

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) account(eps ...*episode) {
	for _, ep := range eps {
		r.attempted += ep.attempted
		r.failed += ep.failed
		r.failures = append(r.failures, ep.failures...)
	}
}

func (r *result) okPct() float64 {
	return 100 * ratio(float64(r.attempted-r.failed), float64(r.attempted))
}

// checkNames fails unless the run reports exactly the declared metrics.
func (r *result) checkNames(want []metricSpec) error {
	got := make(map[string]string, len(r.metrics))
	for _, m := range r.metrics {
		got[m.name] = m.unit
	}
	for _, w := range want {
		unit, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but not measured", w.Name)
		}
		if unit != w.Unit {
			return fmt.Errorf("metric %s is measured in %s but declared in %s", w.Name, unit, w.Unit)
		}
		delete(got, w.Name)
	}
	for name := range got {
		return fmt.Errorf("metric %s is measured but not declared", name)
	}
	return nil
}

// checkDrift records a failure when a simulated metric of the traced pass
// differs from the untraced pass's by more than the metric's bound.
func (r *result) checkDrift(e2e []metricSpec) {
	for _, m := range e2e {
		u, ok := r.sim[0][m.Name]
		if !ok {
			continue
		}
		if t := r.sim[1][m.Name]; math.Abs(t-u) > m.Bound*math.Abs(u) {
			r.failures = append(r.failures, fmt.Sprintf("tracing moved %s from %g to %g", m.Name, u, t))
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) output() jsonResult {
	out := jsonResult{
		Correct:   r.failed == 0 && len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(r.metrics)),
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// runPass replays the traffic in fresh episodes for budget, starting no
// episode it expects to end past it, and logs each episode's host
// figures. A collection runs before each episode so one episode's garbage
// is not swept during the next one's traffic.
func runPass(w workloadDef, tf traffic, exploit *workload.Exploit, seed int64, budget time.Duration, traced bool, log io.Writer) ([]*episode, error) {
	var eps []*episode
	start := time.Now()
	var last time.Duration // the previous episode's length
	for len(eps) < minEpisodes || time.Since(start)+last <= budget {
		began := time.Now()
		runtime.GC()
		var tr *tracer
		if traced {
			tr = newTracer(len(tf.ops))
		}
		ep, err := runEpisode(w, tf, exploit, seed, false, tr)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", len(eps), err)
		}
		eps = append(eps, ep)
		last = time.Since(began)
		fmt.Fprintf(log, "  episode %2d: %s\n", len(eps), ep.hostSummary())
		if ep.failed > 0 {
			break // the run is wrong; more episodes would not change that
		}
	}
	return eps, nil
}

// minEpisodes is the fewest episodes a pass runs, so set-up time is a
// median of several.
const minEpisodes = 3

// measure runs the native anchor and the measured passes for one run.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	tf := makeTraffic(w, seed)
	exploit, err := buildExploit(w)
	if err != nil {
		return nil, err
	}
	res := &result{}
	nat, err := runEpisode(w, tf, nil, seed, true, nil)
	if err != nil {
		return nil, fmt.Errorf("native episode: %w", err)
	}
	res.account(nat)
	nativeRPS := simRPS(nat)

	if !traced {
		eps, err := runPass(w, tf, exploit, seed, budget, false, log)
		if err != nil {
			return nil, err
		}
		res.account(eps...)
		e2e := endToEnd(eps, nativeRPS)
		for _, m := range e2e {
			res.add(m.name, m.unit, m.value)
		}
		res.add("ok_pct", "%", res.okPct())
		fmt.Fprintf(log, "perfbench: %s seed %d: %d episodes, %d simulated samples per episode, %d host samples, native %.0f req/s simulated\n",
			w.name, seed, len(eps), eps[0].served, hostSamples(eps), nativeRPS)
		return res, nil
	}

	un, err := runPass(w, tf, exploit, seed, budget/2, false, log)
	if err != nil {
		return nil, err
	}
	tr, err := runPass(w, tf, exploit, seed, budget/2, true, log)
	if err != nil {
		return nil, err
	}
	res.account(un...)
	res.account(tr...)
	uE, tE := endToEnd(un, nativeRPS), endToEnd(tr, nativeRPS)
	res.sim = [2]map[string]float64{simOnly(uE), simOnly(tE)}
	perLayer(res, log, w, tf, tr, uE, tE)
	if err := writeSpans(traceDir, w, seed, tr); err != nil {
		return nil, err
	}
	return res, nil
}

func simRPS(ep *episode) float64 {
	return ratio(float64(ep.served), float64(ep.wallCycles)/clock.FrequencyHz)
}

func hostSamples(eps []*episode) int {
	n := 0
	for _, ep := range eps {
		n += len(ep.hostLat)
	}
	return n
}

// endToEnd computes the end-to-end metrics of one pass (ok_pct aside).
// Every figure is the median over the pass's episodes, which replay the
// same traffic: simulated figures repeat exactly, and a host figure is
// not moved by the few episodes a busy machine slows down.
func endToEnd(eps []*episode, nativeRPS float64) []metric {
	var rps, p50, p99, cpuCyc, hostRPS, hostP50, hostP99, cpu, allocs, peak, setup []float64
	for _, ep := range eps {
		sim := make([]float64, len(ep.simLat))
		for i, c := range ep.simLat {
			sim[i] = float64(c) / cyclesPerMicro
		}
		lat := make([]float64, len(ep.hostLat))
		for i, d := range ep.hostLat {
			lat[i] = float64(d) / float64(time.Microsecond)
		}
		served := float64(ep.served)
		rps = append(rps, simRPS(ep))
		p50 = append(p50, quantile(sim, 0.50))
		p99 = append(p99, quantile(sim, 0.99))
		cpuCyc = append(cpuCyc, ratio(float64(ep.cpuCycles), served))
		hostRPS = append(hostRPS, ratio(served, ep.traffic.Seconds()))
		hostP50 = append(hostP50, quantile(lat, 0.50))
		hostP99 = append(hostP99, quantile(lat, 0.99))
		cpu = append(cpu, ratio(float64(ep.cpu)/float64(time.Microsecond), served))
		allocs = append(allocs, ratio(float64(ep.allocs), served))
		peak = append(peak, float64(ep.peakHeap)/(1<<20))
		setup = append(setup, ep.setup.Seconds())
	}
	simRPS := median(rps)
	return []metric{
		{"sim_rps", "1/sim_s", simRPS},
		{"sim_p50_us", "sim_us", median(p50)},
		{"sim_p99_us", "sim_us", median(p99)},
		{"pct_native", "%", 100 * ratio(simRPS, nativeRPS)},
		{"sim_cpu_cycles_per_req", "cycles", median(cpuCyc)},
		{"host_rps", "1/s", median(hostRPS)},
		{"host_p50_us", "us", median(hostP50)},
		{"host_p99_us", "us", median(hostP99)},
		{"host_cpu_us_per_req", "us", median(cpu)},
		{"host_allocs_per_req", "count", median(allocs)},
		{"host_peak_heap_mb", "MiB", median(peak)},
		{"setup_s", "s", median(setup)},
	}
}

func simOnly(ms []metric) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		switch m.name {
		case "sim_rps", "sim_p50_us", "sim_p99_us", "pct_native", "sim_cpu_cycles_per_req":
			out[m.name] = m.value
		}
	}
	return out
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// clipped is a traced episode's host time on the request path, with every
// server-side span cut to the client's request intervals. leaderN counts
// the leader intercepts that overlap a request interval.
type clipped struct {
	request, region, leaderIn, leaderOut, leaderN int64
}

// clip sweeps the request spans against the region and leader-intercept
// spans. All three lists are in time order and do not overlap within a
// list: the client issues one operation at a time, and regions and leader
// intercepts run on the one leader goroutine.
func (tr *tracer) clip() clipped {
	var c clipped
	ri, li, counted := 0, 0, -1
	for _, rq := range tr.requests {
		c.request += rq.dur()
		for ri < len(tr.regions) && tr.regions[ri].end <= rq.start {
			ri++
		}
		for j := ri; j < len(tr.regions) && tr.regions[j].start < rq.end; j++ {
			c.region += tr.regions[j].overlap(rq)
		}
		for li < len(tr.leader) && tr.leader[li].end <= rq.start {
			li++
		}
		for j := li; j < len(tr.leader) && tr.leader[j].start < rq.end; j++ {
			o := tr.leader[j].overlap(rq)
			if o > 0 && j > counted {
				c.leaderN++
				counted = j
			}
			if tr.leader[j].inRegion {
				c.leaderIn += o
			} else {
				c.leaderOut += o
			}
		}
	}
	return c
}

// heapScanGrowth compares the mean heap-scan cost of the last tenth of an
// episode's variant creations with the first tenth, in percent.
func heapScanGrowth(regions []regionSpan) float64 {
	var scans []float64
	for _, rg := range regions {
		if rg.creation.Total() > 0 {
			scans = append(scans, float64(rg.creation.HeapScanCycles))
		}
	}
	n := len(scans) / 10
	if n == 0 {
		return 0
	}
	first, last := mean(scans[:n]), mean(scans[len(scans)-n:])
	return 100 * (ratio(last, first) - 1)
}

// ledgerPhases are the lockstep phases reported per request.
var ledgerPhases = []string{"trampoline", "rendezvous", "enqueue", "wait", "emulate", "drain", "barrier", "libc"}

// perLayer computes the per-layer metrics from the traced pass (and the
// untraced pass's end-to-end figures, for the tracing overhead) and prints
// the self-time table.
func perLayer(res *result, log io.Writer, w workloadDef, tf traffic, tr []*episode, uE, tE []metric) {
	var served, attacks, regions, creations int
	var c clipped
	var followerNs, followerCalls, libcLeader, libcFollower int64
	var create, dup, dscan, hscan, clone, relocated float64
	var regionWall, wastedCPU, regionCPU float64
	var rollbackUs []float64
	var reportCalls, reportBytes, reportN float64
	var alarms, rollbacks, snapshots int
	var heapGrowth float64
	var events, syscalls float64
	var gcCycles, gcPauseNs, allocB float64
	var ledCalls, ledAllocs uint64
	var ledSync, rvSum float64
	phase := make(map[string]float64)
	var reqUs, growth, heapEnd, resident, evicted, bootMs, setupMs, acceptMs []float64

	for _, ep := range tr {
		t := ep.tr
		served += ep.served
		attacks += tf.attacks
		cl := t.clip()
		c.request += cl.request
		c.region += cl.region
		c.leaderIn += cl.leaderIn
		c.leaderOut += cl.leaderOut
		c.leaderN += cl.leaderN
		followerNs += t.followerNs.Load()
		followerCalls += t.followerCalls.Load()
		libcLeader += t.libcLeader.Load()
		libcFollower += t.libcFollower.Load()
		regions += len(t.regions)
		for _, rg := range t.regions {
			regionWall += float64(rg.wall)
			regionCPU += float64(rg.cpu)
			if rg.rolledBack {
				wastedCPU += float64(rg.cpu)
				rollbackUs = append(rollbackUs, float64(rg.dur())/1e3)
			}
			if cs := rg.creation; cs.Total() > 0 {
				creations++
				create += float64(cs.Total())
				dup += float64(cs.DupCycles)
				dscan += float64(cs.DataScanCycles)
				hscan += float64(cs.HeapScanCycles)
				clone += float64(cs.CloneCycles)
				relocated += float64(cs.PointersRelocated)
			}
		}
		growth = append(growth, heapScanGrowth(t.regions))
		for _, rp := range ep.reports {
			reportCalls += float64(rp.LibcCalls)
			reportBytes += float64(rp.EmulatedBytes)
			reportN++
		}
		alarms += ep.alarms
		rollbacks += ep.rollbacks
		snapshots += ep.snapshots
		heapGrowth += float64(ep.heapEnd) - float64(t.heapStart)
		heapEnd = append(heapEnd, float64(ep.heapEnd)/1024)
		resident = append(resident, float64(ep.residentKB))
		events += float64(ep.events)
		evicted = append(evicted, float64(ep.evicted))
		syscalls += float64(ep.syscalls)
		gcCycles += float64(ep.gcCycles)
		gcPauseNs += float64(ep.gcPauseNs)
		allocB += float64(ep.allocB)
		for _, d := range ep.hostLat {
			reqUs = append(reqUs, float64(d)/1e3)
		}
		for _, rs := range ep.led.Snapshot().Regions {
			for _, cell := range rs.Cells {
				phase[cell.Phase] += float64(cell.Cycles)
			}
		}
		calls, _, al := ep.led.Totals()
		ledCalls += calls
		ledAllocs += al
		ledSync += float64(ep.led.LeaderSyncCycles())
		rvSum += float64(ep.rendezvousSum)
		bootMs = append(bootMs, float64(t.bootNs)/1e6)
		setupMs = append(setupMs, float64(t.coreSetupNs)/1e6)
		acceptMs = append(acceptMs, float64(t.firstAcceptNs)/1e6)
	}
	B := float64(served)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	perAttack := func(n int) float64 { return ratio(float64(n), float64(attacks)) }

	res.add("workload.request_host_us", "us", mean(reqUs))
	res.add("workload.client_self_host_us", "us", us(c.request-c.region)/B)
	res.add("workload.sim_samples", "count", float64(tr[0].served))
	res.add("workload.host_samples", "count", float64(hostSamples(tr)))
	res.add("core.region_host_us_per_req", "us", us(c.region)/B)
	res.add("core.region_self_host_us_per_req", "us", us(c.region-c.leaderIn)/B)
	res.add("core.intercept_host_us_per_req.leader", "us", us(c.leaderIn+c.leaderOut)/B)
	res.add("core.intercept_host_us_per_req.follower", "us", us(followerNs)/B)
	res.add("core.intercept_calls_per_req.leader", "count", float64(c.leaderN)/B)
	res.add("core.intercept_calls_per_req.follower", "count", float64(followerCalls)/B)
	res.add("core.intercept_host_ns_per_call", "ns", ratio(float64(c.leaderIn+c.leaderOut), float64(c.leaderN)))
	res.add("core.regions_per_req", "count", float64(regions)/B)
	n := float64(creations)
	res.add("core.create_cycles_per_region", "cycles", ratio(create, n))
	res.add("core.create_dup_cycles", "cycles", ratio(dup, n))
	res.add("core.create_datascan_cycles", "cycles", ratio(dscan, n))
	res.add("core.create_heapscan_cycles", "cycles", ratio(hscan, n))
	res.add("core.create_clone_cycles", "cycles", ratio(clone, n))
	res.add("core.create_heapscan_growth_pct", "%", median(growth))
	res.add("core.pointers_relocated_per_region", "count", ratio(relocated, n))
	res.add("core.region_wall_cycles_per_req", "cycles", regionWall/B)
	res.add("core.libc_calls_per_region", "count", ratio(reportCalls, reportN))
	res.add("core.emulated_bytes_per_region", "B", ratio(reportBytes, reportN))
	for _, p := range ledgerPhases {
		res.add("ledger."+p+".cycles_per_req", "cycles", phase[p]/B)
	}
	res.add("ledger.allocs_per_call", "count", ratio(float64(ledAllocs), float64(ledCalls)))
	res.add("ledger.reconcile_pct", "%", 100*ratio(math.Abs(ledSync-rvSum), rvSum))
	res.add("core.alarms_per_attack", "count", perAttack(alarms))
	res.add("core.rollbacks_per_attack", "count", perAttack(rollbacks))
	res.add("core.snapshots_per_req", "count", float64(snapshots)/B)
	res.add("core.rollback_wasted_pct", "%", 100*ratio(wastedCPU, regionCPU))
	res.add("core.rollback_host_us", "us", mean(rollbackUs))
	res.add("libc.calls_per_req.leader", "count", float64(libcLeader)/B)
	res.add("libc.calls_per_req.follower", "count", float64(libcFollower)/B)
	res.add("libc.heap_live_kb_end", "KiB", median(heapEnd))
	res.add("libc.heap_growth_b_per_req", "B", heapGrowth/B)
	res.add("kernel.syscalls_per_req", "count", syscalls/B)
	res.add("mem.resident_kb_end", "KiB", median(resident))
	res.add("obs.events_per_req", "count", events/B)
	res.add("obs.evicted", "count", median(evicted))
	res.add("goruntime.gc_cycles_per_kreq", "count", 1000*gcCycles/B)
	res.add("goruntime.gc_pause_us_total", "us", gcPauseNs/1e3)
	res.add("goruntime.alloc_bytes_per_req", "B", allocB/B)
	res.add("boot.env_ms", "ms", median(bootMs))
	res.add("core.setup_ms", "ms", median(setupMs))
	res.add("nginx.first_accept_ms", "ms", median(acceptMs))
	res.add("trace.overhead_pct", "%", 100*(ratio(valueOf(uE, "host_rps"), valueOf(tE, "host_rps"))-1))
	var drift float64
	for name, u := range res.sim[0] {
		drift = math.Max(drift, 100*math.Abs(ratio(res.sim[1][name]-u, u)))
	}
	res.add("trace.sim_drift_pct", "%", drift)
	writeSelfTable(log, w, served, c, followerNs, median(bootMs), median(setupMs), median(acceptMs))
}

// writeSelfTable prints where the traced pass's request time went, layer
// by layer: each layer's span on the request path and its self time, the
// span minus the child spans it covers. c and followerNs are sums over
// served requests.
func writeSelfTable(w io.Writer, wl workloadDef, served int, c clipped, followerNs int64, bootMs, setupMs, acceptMs float64) {
	B := float64(served) * 1e3 // ns per request -> us
	share := func(ns int64) float64 { return 100 * ratio(float64(ns), float64(c.request)) }
	fmt.Fprintf(w, "self time per served request, %s (traced pass, host us):\n", wl.name)
	fmt.Fprintf(w, "  %-48s %10s %10s %7s\n", "layer", "span", "self", "share")
	row := func(name string, spanNs, selfNs int64) {
		fmt.Fprintf(w, "  %-48s %10.1f %10.1f %6.1f%%\n", name, float64(spanNs)/B, float64(selfNs)/B, share(selfNs))
	}
	row("workload: request (client, loopback, nginx)", c.request, c.request-c.region-c.leaderOut)
	row("core: region (MVX.Invoke)", c.region, c.region-c.leaderIn)
	row("core: leader intercepts in region", c.leaderIn, c.leaderIn)
	row("core: leader intercepts outside region", c.leaderOut, c.leaderOut)
	fmt.Fprintf(w, "  %-48s %10.1f %10s %7s\n", "core: follower intercepts (overlap leader spans)", float64(followerNs)/B, "-", "-")
	fmt.Fprintf(w, "set-up, median per episode (host ms): boot.NewEnv %.2f, core.New+Setup %.2f, nginx to first accept %.2f\n",
		bootMs, setupMs, acceptMs)
}

// writeSpans writes the traced pass's spans as CSV: the set-up spans (laid
// end to end, without the client's preparation before the worker starts),
// one row per request and per region, and the leader intercepts summed per
// request. Every row carries the id of the client operation it belongs to.
func writeSpans(dir string, wl workloadDef, seed int64, tr []*episode) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", wl.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "episode,op,span,start_ns,end_ns,detail")
	for e, ep := range tr {
		t := ep.tr
		fmt.Fprintf(bw, "%d,-1,boot.env,0,%d,\n", e, t.bootNs)
		fmt.Fprintf(bw, "%d,-1,core.setup,%d,%d,\n", e, t.bootNs, t.bootNs+t.coreSetupNs)
		fmt.Fprintf(bw, "%d,-1,nginx.first_accept,%d,%d,\n", e, t.bootNs+t.coreSetupNs, t.bootNs+t.coreSetupNs+t.firstAcceptNs)
		for i, rq := range t.requests {
			fmt.Fprintf(bw, "%d,%d,workload.request,%d,%d,\n", e, i, rq.start, rq.end)
		}
		for _, rg := range t.regions {
			detail := fmt.Sprintf("wall_cycles=%d cpu_cycles=%d create_cycles=%d", rg.wall, rg.cpu, rg.creation.Total())
			if rg.rolledBack {
				detail += " rolled_back"
			}
			fmt.Fprintf(bw, "%d,%d,core.region,%d,%d,%s\n", e, rg.op, rg.start, rg.end, detail)
		}
		// Leader intercepts are summed per operation: one row each would
		// be tens of megabytes per run.
		type agg struct{ calls, inNs, outNs int64 }
		perOp := make([]agg, len(t.requests))
		for _, ic := range t.leader {
			i := opAt(t.requests, ic.start)
			if i < 0 {
				continue
			}
			perOp[i].calls++
			if ic.inRegion {
				perOp[i].inNs += ic.dur()
			} else {
				perOp[i].outNs += ic.dur()
			}
		}
		for i, a := range perOp {
			fmt.Fprintf(bw, "%d,%d,core.intercept.leader,,,calls=%d in_region_ns=%d outside_region_ns=%d\n", e, i, a.calls, a.inNs, a.outNs)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// opAt is the operation whose request span was open at ns (the last one
// started at or before it), or -1 before the first.
func opAt(reqs []span, ns int64) int {
	return sort.Search(len(reqs), func(i int) bool { return reqs[i].start > ns }) - 1
}
