package main

import (
	"bytes"
	"testing"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestClipCutsServerSpansToRequests(t *testing.T) {
	tr := &tracer{
		requests: []span{{0, 100}, {150, 250}},
		// The second region outlives its request.
		regions: []regionSpan{{span: span{10, 90}}, {span: span{160, 300}}},
		leader: []interceptSpan{
			{span: span{20, 30}, inRegion: true},
			{span: span{95, 170}}, // straddles the gap between requests
			{span: span{200, 210}, inRegion: true},
		},
	}
	got := tr.clip()
	want := clipped{request: 200, region: 80 + 90, leaderIn: 10 + 10, leaderOut: 5 + 20, leaderN: 3}
	if got != want {
		t.Errorf("clip = %+v, want %+v", got, want)
	}
}

func TestTrafficIsSeededAndAttacksNeverAdjacent(t *testing.T) {
	w, err := lookupWorkload("nginx-cve-rollback")
	if err != nil {
		t.Fatal(err)
	}
	a, b := makeTraffic(w, 7), makeTraffic(w, 7)
	if len(a.ops) != len(b.ops) || !bytes.Equal(a.page, b.page) {
		t.Fatal("same seed gave different traffic")
	}
	for i := range a.ops {
		if a.ops[i] != b.ops[i] {
			t.Fatalf("op %d differs between two draws of one seed", i)
		}
	}
	if a.benign != benignPerEpisode || a.attacks != benignPerEpisode/attackBlock {
		t.Errorf("benign %d attacks %d", a.benign, a.attacks)
	}
	for i := 1; i < len(a.ops); i++ {
		if a.ops[i].attack && a.ops[i-1].attack {
			t.Fatalf("attacks at %d and %d are adjacent", i-1, i)
		}
	}
	if c := makeTraffic(w, 8); bytes.Equal(c.page, a.page) {
		t.Error("another seed gave the same page")
	}
}

// TestExploitMatchesBootedImage checks that the exploit built once per run
// carries the gadget addresses of the image an episode boots.
func TestExploitMatchesBootedImage(t *testing.T) {
	w, err := lookupWorkload("nginx-cve-rollback")
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildExploit(w)
	if err != nil {
		t.Fatal(err)
	}
	srv := nginx.NewServer(nginx.Config{Version: w.version, Protect: w.protect})
	env, err := boot.NewEnv(kernel.New(clock.DefaultCosts(), 5), srv.Program(), boot.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.BuildCVE2013_2028(env.Img, pwnedDir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Request, want.Request) || !bytes.Equal(got.Body, want.Body) {
		t.Errorf("exploit differs from one built against the booted image: %v vs %v", got.Chain, want.Chain)
	}
}

func TestCheckPage(t *testing.T) {
	page := []byte("hello")
	ok := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	if msg := checkPage(ok, page); msg != "" {
		t.Errorf("good response rejected: %s", msg)
	}
	for _, bad := range [][]byte{
		[]byte("HTTP/1.1 404 X\r\nContent-Length: 0\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhellO"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhell"),
	} {
		if checkPage(bad, page) == "" {
			t.Errorf("bad response accepted: %q", bad)
		}
	}
}

// TestShortEpisodes runs a cut-down traffic through every workload, traced
// and untraced, so `go test -race` covers the probes' goroutine sharing.
func TestShortEpisodes(t *testing.T) {
	for _, w := range workloads {
		tf := makeTraffic(w, 3)
		tf.ops = tf.ops[:40]
		tf.benign, tf.attacks = 0, 0
		for _, o := range tf.ops {
			if o.attack {
				tf.attacks++
			} else {
				tf.benign++
			}
		}
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer(len(tf.ops))
			}
			exploit, err := buildExploit(w)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := runEpisode(w, tf, exploit, 3, false, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if ep.failed != 0 || ep.served != tf.benign {
				t.Errorf("%s traced=%v: %d of %d operations failed, served %d: %v",
					w.name, traced, ep.failed, ep.attempted, ep.served, ep.failures)
			}
			if traced && (len(tr.regions) == 0 || len(tr.leader) == 0) {
				t.Errorf("%s: traced episode recorded %d regions and %d leader intercepts",
					w.name, len(tr.regions), len(tr.leader))
			}
		}
	}
}
