package main

import "fmt"

// claim says: this replica's balances are the sequential fold of the
// first `age` transactions. The live stack makes one at the end of the
// run, the recovered clone one at Recovery.Next(), the follower one
// after promotion.
type claim struct {
	what  string
	age   uint64
	state []uint64
}

// verdict is the oracle's judgement of one run. failed counts refused
// or errored submissions, per-ticket results that differ from the
// fold, and acknowledgements out of age order on one client. A fatal
// finding — a gap or duplicate among acknowledged ages, a state that
// is not the fold of its prefix — means nothing the stack said can be
// trusted, and fails every operation attempted.
type verdict struct {
	attempted  uint64
	acked      uint64
	refused    uint64
	mismatched uint64
	disorder   uint64
	fatal      []string
}

func (v verdict) failed() uint64 {
	if len(v.fatal) > 0 {
		return v.attempted
	}
	return v.refused + v.mismatched + v.disorder
}

// verify replays everything the clients were acknowledged, in age
// order, through the sequential oracle. ages below resultsBelow have
// their per-ticket result checked against results (ages at or above it
// ran on a replica that keeps none).
func verify(clients []*client, ins []inputs, accounts int, results []uint64, resultsBelow uint64, claims []claim) verdict {
	var v verdict
	for _, c := range clients {
		v.attempted += uint64(c.next)
		v.refused += c.refused
		last, have := uint64(0), false
		for _, age := range c.ages[:c.next] {
			if age == noAge {
				continue
			}
			v.acked++
			if have && age <= last {
				v.disorder++
			}
			last, have = age, true
		}
	}

	// owner[age] = the (client, input) acknowledged at that age, +1.
	var ar arena
	defer ar.free()
	owner, err := ar.u32(int(v.acked))
	if err != nil {
		v.fatal = append(v.fatal, err.Error())
		return v
	}
	for ci, c := range clients {
		for i, age := range c.ages[:c.next] {
			switch {
			case age == noAge:
			case age >= v.acked:
				v.fatal = append(v.fatal, fmt.Sprintf("client %d was acknowledged age %d but only %d ages were acknowledged: a gap", ci, age, v.acked))
				return v
			case owner[age] != 0:
				v.fatal = append(v.fatal, fmt.Sprintf("age %d acknowledged twice", age))
				return v
			default:
				owner[age] = uint32(ci)<<24 | uint32(i%ins[ci].n) + 1
			}
		}
	}

	o := newOracle(accounts)
	check := func() {
		for _, cl := range claims {
			if cl.age != o.next {
				continue
			}
			if len(cl.state) != len(o.bal) {
				v.fatal = append(v.fatal, fmt.Sprintf("%s state has %d accounts, want %d", cl.what, len(cl.state), len(o.bal)))
				continue
			}
			for i := range o.bal {
				if cl.state[i] != o.bal[i] {
					v.fatal = append(v.fatal, fmt.Sprintf("%s state is not the fold of ages [0,%d): account %d holds %d, want %d", cl.what, cl.age, i, cl.state[i], o.bal[i]))
					break
				}
			}
		}
	}
	for age := uint64(0); age < v.acked; age++ {
		check()
		ref := owner[age] - 1
		x, err := parsePayload(ins[ref>>24].at(int(ref&(1<<24-1))), accounts)
		if err != nil {
			v.fatal = append(v.fatal, err.Error())
			return v
		}
		want := o.apply(x)
		if age < resultsBelow && results[age] != want {
			v.mismatched++
		}
	}
	check()
	for _, cl := range claims {
		if cl.age > v.acked {
			v.fatal = append(v.fatal, fmt.Sprintf("%s claims the prefix [0,%d) but only %d ages were acknowledged", cl.what, cl.age, v.acked))
		}
	}
	return v
}
