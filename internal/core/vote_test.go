package core

import (
	"fmt"
	"reflect"
	"testing"

	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
)

// voteBallot builds a valid ballot for a "write(fd, buf, len)" call with
// the given scalar fd — write's scalar mask makes fd the voted argument,
// while the buf pointer legitimately differs per variant window.
func voteBallot(variant int, fd uint64) Ballot {
	return Ballot{
		Variant: VariantID(variant),
		Name:    "write",
		Args:    []uint64{fd, 0x400500 + uint64(variant)*0x1000, 17},
		Valid:   true,
	}
}

// TestVoteAllAgreementPatternsN3 enumerates every corruption pattern of a
// 3-variant set (each of leader, follower 1, follower 2 either casts the
// honest value or a shared corrupted one — all 2^3 subsets) and pins the
// winner, losers, and majority. The corrupted ballots agree with each
// other, which is the adversarial worst case: a colluding pair outvotes
// the lone honest leader at N=3.
func TestVoteAllAgreementPatternsN3(t *testing.T) {
	const honest, corrupt = 7, 7 ^ 1
	cases := []struct {
		corrupted    [3]bool
		wantWinner   int
		wantLosers   []int
		wantMajority int
	}{
		{[3]bool{false, false, false}, 0, nil, 3},
		{[3]bool{false, false, true}, 0, []int{2}, 2},
		{[3]bool{false, true, false}, 0, []int{1}, 2},
		// A colluding follower pair forms the larger class: the leader is
		// outvoted.
		{[3]bool{false, true, true}, 1, []int{0}, 2},
		// A corrupted leader is outvoted by the honest followers.
		{[3]bool{true, false, false}, 1, []int{0}, 2},
		// Leader plus one corrupted follower still outvote the honest
		// straggler — garbage in, garbage wins; the vote only measures
		// agreement.
		{[3]bool{true, false, true}, 0, []int{1}, 2},
		{[3]bool{true, true, false}, 0, []int{2}, 2},
		// Everyone corrupted the same way: unanimous, no losers.
		{[3]bool{true, true, true}, 0, nil, 3},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v", c.corrupted)
		t.Run(name, func(t *testing.T) {
			ballots := make([]Ballot, 3)
			for i, bad := range c.corrupted {
				v := uint64(honest)
				if bad {
					v = corrupt
				}
				ballots[i] = voteBallot(i, v)
			}
			res := Vote(ballots)
			if res.Winner != c.wantWinner {
				t.Errorf("winner = %d, want %d", res.Winner, c.wantWinner)
			}
			if !reflect.DeepEqual(res.Losers, c.wantLosers) {
				t.Errorf("losers = %v, want %v", res.Losers, c.wantLosers)
			}
			if res.Majority != c.wantMajority {
				t.Errorf("majority = %d, want %d", res.Majority, c.wantMajority)
			}
		})
	}
}

// TestVoteNameMismatch pins that a differing call name splits the class
// even when the arguments happen to line up.
func TestVoteNameMismatch(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		voteBallot(1, 3),
		{Variant: 2, Name: "read", Args: []uint64{3, 0x400500, 17}, Valid: true},
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(res.Losers, []int{2}) {
		t.Errorf("vote = %+v, want leader wins 2-1 over the read ballot", res)
	}
}

// TestVoteInvalidBallots pins that undecodable records never join a class
// and always lose, and that a rendezvous with no valid ballot at all
// elects nobody.
func TestVoteInvalidBallots(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		{Variant: 1, Valid: false},
		voteBallot(2, 3),
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(res.Losers, []int{1}) {
		t.Errorf("vote = %+v, want invalid ballot among losers", res)
	}

	none := Vote([]Ballot{{Valid: false}, {Valid: false}})
	if none.Winner != -1 || !reflect.DeepEqual(none.Losers, []int{0, 1}) || none.Majority != 0 {
		t.Errorf("all-invalid vote = %+v, want winner -1 and everyone losing", none)
	}
}

// TestVoteTieBreaksTowardLeader pins the first-maximal tie-break: at an
// even split the class containing the lowest ballot index — the leader's —
// wins, so a split vote can never outvote the leader.
func TestVoteTieBreaksTowardLeader(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		voteBallot(1, 9),
		voteBallot(2, 3),
		voteBallot(3, 9),
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(res.Losers, []int{1, 3}) {
		t.Errorf("2-2 vote = %+v, want the leader's class to win the tie", res)
	}
}

// TestVotePairDegenerates pins the N=2 shape: a pair vote is exactly the
// pairwise compare — agreement elects both, disagreement elects the
// leader's singleton class.
func TestVotePairDegenerates(t *testing.T) {
	agree := Vote([]Ballot{voteBallot(0, 3), voteBallot(1, 3)})
	if agree.Winner != 0 || agree.Majority != 2 || len(agree.Losers) != 0 {
		t.Errorf("agreeing pair = %+v", agree)
	}
	differ := Vote([]Ballot{voteBallot(0, 3), voteBallot(1, 4)})
	if differ.Winner != 0 || differ.Majority != 1 || !reflect.DeepEqual(differ.Losers, []int{1}) {
		t.Errorf("differing pair = %+v, want leader's singleton to win", differ)
	}
}

// TestOutvotedForensicsNameTheVariant runs a three-variant set in which
// only follower slot 2 flips a scalar argument: it is outvoted 2-to-1, and
// the alarm's forensic snapshots must label its registers "follower2", not
// the pair-era "follower" that would leave the report ambiguous.
func TestOutvotedForensicsNameTheVariant(t *testing.T) {
	env, mon, rec := policyApp(t, WithPolicy(PolicyLeaderContinue), WithVariants(3))
	env.Prog.MustDefine("diverge_arg", func(th *machine.Thread, args []uint64) uint64 {
		g := th.Global("g_buf")
		th.WriteCString(g, "/f")
		flags := uint64(kernel.OCreat | kernel.OWronly)
		if th.Bias() == 2*FollowerDelta {
			flags = 0
		}
		th.Libc("open", uint64(g), flags)
		return 0
	})
	if completed, err := runRegions(t, env, mon, "diverge_arg", 1); err != nil || completed != 1 {
		t.Fatalf("completed %d/1, err=%v", completed, err)
	}
	alarms := mon.Alarms()
	if len(alarms) != 1 || alarms[0].Reason != AlarmOutvoted || alarms[0].Variant != 2 {
		t.Fatalf("alarms = %v, want one outvote of variant 2", alarms)
	}
	infos := rec.Alarms()
	if len(infos) != 1 {
		t.Fatalf("recorder holds %d alarms, want 1", len(infos))
	}
	var roles []string
	for _, sn := range infos[0].Snapshots {
		roles = append(roles, sn.Role)
	}
	if want := []string{"leader", "follower2"}; !reflect.DeepEqual(roles, want) {
		t.Errorf("snapshot roles = %q, want %q", roles, want)
	}
}
