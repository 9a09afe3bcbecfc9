package main

import (
	"fmt"
	"math/rand"
	"strings"

	"smvx/internal/apps/nginx"
	"smvx/internal/core"
	"smvx/internal/workload"
)

// workloadDef is one benchmark workload: the protected nginx posture and
// the shape of the traffic the single closed-loop client sends at it.
type workloadDef struct {
	name      string
	version   string
	accessLog bool
	protect   string
	mode      core.LockstepMode
	lag       int
	variants  int
	policy    core.DivergencePolicy
	// attacks interleaves one CVE-2013-2028 exploit into every block of
	// attackBlock benign GETs, at a seeded position in the block.
	attacks bool
}

// benignPerEpisode is how many benign GETs one episode sends: enough that
// the simulated p99 has ten samples beyond it.
const benignPerEpisode = 1000

// attackBlock is the number of benign GETs per exploit.
const attackBlock = 10

var workloads = []workloadDef{
	{
		name:     "nginx-line-strict",
		version:  nginx.VersionFixed,
		protect:  "ngx_http_process_request_line",
		mode:     core.LockstepStrict,
		variants: 2,
		policy:   core.PolicyKillBoth,
	},
	{
		name:      "nginx-worker-n3-pipelined",
		version:   nginx.VersionFixed,
		accessLog: true,
		protect:   "ngx_worker_process_cycle",
		mode:      core.LockstepPipelined,
		lag:       16,
		variants:  3,
		policy:    core.PolicyKillBoth,
	},
	{
		name:     "nginx-cve-rollback",
		version:  nginx.VersionVulnerable,
		protect:  "ngx_http_process_request_line",
		mode:     core.LockstepStrict,
		variants: 2,
		policy:   core.PolicyRollback,
		attacks:  true,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// op is one client operation: a benign GET of the page, or an exploit
// delivery.
type op struct {
	attack bool
}

// traffic is everything a seed determines: the served page and the
// operation sequence. Every episode of a run replays the same traffic.
type traffic struct {
	page    []byte
	req     []byte // the benign request, ab's GET of the page
	ops     []op
	benign  int
	attacks int
}

// pageSize is the static page served per request.
const pageSize = 4096

// makeTraffic draws the page bytes and, for an attacking workload, the
// exploit position within each block of benign GETs. Every benign request
// is ab's GET of the page, as in the paper's web-server measurements. An
// exploit is never adjacent to another, so the rollback budget's
// same-ordinal streak always resets between attacks.
func makeTraffic(w workloadDef, seed int64) traffic {
	rng := rand.New(rand.NewSource(seed))
	tf := traffic{page: make([]byte, pageSize), req: workload.GetRequest(pagePath)}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_."
	for i := range tf.page {
		tf.page[i] = alphabet[rng.Intn(len(alphabet))]
	}
	attackAt := -1
	for i := 0; i < benignPerEpisode; i++ {
		if w.attacks && i%attackBlock == 0 {
			attackAt = i + rng.Intn(attackBlock)
		}
		if i == attackAt {
			tf.ops = append(tf.ops, op{attack: true})
			tf.attacks++
		}
		tf.ops = append(tf.ops, op{})
		tf.benign++
	}
	return tf
}

// buildExploit builds the CVE-2013-2028 attack for w's traffic, or nil when
// w sends none. Simulated nginx's image does not depend on the seed or the
// server's configuration, so one build serves every episode of a run.
func buildExploit(w workloadDef) (*workload.Exploit, error) {
	if !w.attacks {
		return nil, nil
	}
	return workload.BuildCVE2013_2028(nginx.BuildImage(), pwnedDir)
}
