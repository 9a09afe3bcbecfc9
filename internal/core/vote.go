package core

// Majority voting over the variant set.
//
// With a single follower a rendezvous is a pairwise compare: any
// disagreement is a divergence and the paper's kill-both verdict applies to
// the pair. With N-1 followers the same disagreement carries more
// information — a single corrupted variant is outvoted by the agreeing
// majority, which keeps serving while only the minority is quarantined
// through the existing detach/restart/rollback policies. The vote uses the
// exact equivalence the pairwise compare uses: same libc call name and no
// scalar-argument mismatch under scalarArgMask (pointer arguments
// legitimately differ between the variants' address windows).

// Ballot is one variant's half of an N-way rendezvous: the libc call it
// arrived with. Ballot 0 is always the leader. Invalid ballots (a record
// that failed to decode) never join an agreement class and are always
// among the losers.
type Ballot struct {
	// Variant is the dense variant index casting this ballot.
	Variant VariantID
	// Name is the libc call the variant issued.
	Name string
	// Args are the call's raw argument values.
	Args []uint64
	// Valid marks a ballot that decoded correctly and may join a class.
	Valid bool
}

// VoteResult is the outcome of one majority vote.
type VoteResult struct {
	// Winner is the lowest ballot index inside the winning agreement class.
	Winner int
	// Losers are the ballot indices outside the winning class (including
	// invalid ballots), in ascending order.
	Losers []int
	// Majority is the winning class's size.
	Majority int
}

// ballotsAgree is the vote's equivalence relation — the pairwise
// rendezvous checks, applied symmetrically.
func ballotsAgree(a, b Ballot) bool {
	if a.Name != b.Name {
		return false
	}
	bad, _, _ := scalarMismatch(a.Name, a.Args, b.Args)
	return !bad
}

// Vote partitions the ballots into agreement classes (see elect) and
// elects the largest; ties break toward the class containing the lowest
// ballot index, so a split vote never outvotes the leader.
func Vote(ballots []Ballot) VoteResult {
	class := make([]int, len(ballots))
	winner, majority := elect(ballots, class)
	res := VoteResult{Winner: winner, Majority: majority}
	for i, c := range class {
		if winner < 0 || c != winner {
			res.Losers = append(res.Losers, i)
		}
	}
	return res
}

// elect is the allocation-free core of Vote. It partitions the ballots
// greedily in ballot order — each valid ballot joins the first class whose
// founding (lowest-index) ballot it agrees with, or founds a new one — and
// returns the founder and size of the largest class, the first such class
// on a tie. class[i] receives ballot i's founder, -1 for an invalid ballot;
// winner is -1 when no ballot is valid.
func elect(ballots []Ballot, class []int) (winner, majority int) {
	for i, b := range ballots {
		class[i] = -1
		if !b.Valid {
			continue
		}
		class[i] = i
		for f := 0; f < i; f++ {
			if class[f] == f && ballotsAgree(ballots[f], b) {
				class[i] = f
				break
			}
		}
	}
	winner = -1
	for f := range class {
		if class[f] != f {
			continue
		}
		size := 0
		for _, c := range class[f:] {
			if c == f {
				size++
			}
		}
		if size > majority {
			winner, majority = f, size
		}
	}
	return winner, majority
}
