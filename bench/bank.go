package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/orderedstm/ostm/internal/rng"
	"github.com/orderedstm/ostm/stm"
)

// One transaction family runs on every streaming workload. It is
// order-sensitive on purpose — the amount moved depends on what the
// transaction read and on its age — so an engine that commits out of
// the predefined order shows up in per-ticket results and in the final
// state, not just in timing:
//
//	read from + k extra accounts; amt = sum % 7 + age % 3;
//	if from != to and from's balance covers amt, move amt from -> to;
//	result = from's balance afterwards.
//
// Wire form, little-endian (spin is reserved: always written as zero,
// never read):
//
//	u32 from | u32 to | u16 k | k x u32 extra | u16 spin

const (
	maxExtra       = 8
	initialBalance = 1000
	noAge          = ^uint64(0)
)

// xfer is one decoded transaction.
type xfer struct {
	from, to uint32
	k        int
	extra    [maxExtra]uint32
}

func payloadLen(k int) int { return 12 + 4*k }

func appendPayload(dst []byte, x xfer) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, x.from)
	dst = binary.LittleEndian.AppendUint32(dst, x.to)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(x.k))
	for i := 0; i < x.k; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, x.extra[i])
	}
	return binary.LittleEndian.AppendUint16(dst, 0)
}

func parsePayload(data []byte, pool int) (xfer, error) {
	var x xfer
	if len(data) < 12 {
		return x, fmt.Errorf("bench: payload of %d bytes is too short", len(data))
	}
	x.from = binary.LittleEndian.Uint32(data[0:])
	x.to = binary.LittleEndian.Uint32(data[4:])
	x.k = int(binary.LittleEndian.Uint16(data[8:]))
	if x.k > maxExtra || len(data) != payloadLen(x.k) {
		return x, fmt.Errorf("bench: payload of %d bytes does not hold k=%d", len(data), x.k)
	}
	for i := 0; i < x.k; i++ {
		x.extra[i] = binary.LittleEndian.Uint32(data[10+4*i:])
		if int(x.extra[i]) >= pool {
			return x, fmt.Errorf("bench: account %d outside pool of %d", x.extra[i], pool)
		}
	}
	if int(x.from) >= pool || int(x.to) >= pool {
		return x, fmt.Errorf("bench: transfer %d->%d outside pool of %d", x.from, x.to, pool)
	}
	return x, nil
}

// bank is one replica's state: the accounts, and (on the stack the
// clients talk to) the per-age results the committing execution of
// each transaction leaves behind.
type bank struct {
	accounts []stm.Var
	// results[age] is written by the body. Attempts of one age never
	// overlap and the committing one runs last, so after the ticket
	// resolves the slot holds the committed result. nil on followers
	// and recovered stacks, which are checked by state alone.
	results []uint64
	// overflow counts ages beyond results; the run is then not
	// verifiable and fails.
	overflow atomic.Uint64
}

func newBank(accounts int, results []uint64) *bank {
	b := &bank{accounts: stm.NewVars(accounts), results: results}
	for i := range b.accounts {
		b.accounts[i].Store(initialBalance)
	}
	return b
}

func (b *bank) body(x xfer) stm.Body {
	acc := b.accounts
	return func(tx stm.Tx, age int) {
		bf := tx.Read(&acc[x.from])
		sum := bf
		for i := 0; i < x.k; i++ {
			sum += tx.Read(&acc[x.extra[i]])
		}
		amt := sum%7 + uint64(age%3)
		res := bf
		if x.from != x.to && bf >= amt {
			res = bf - amt
			tx.Write(&acc[x.from], res)
			tx.Write(&acc[x.to], tx.Read(&acc[x.to])+amt)
		}
		if b.results != nil {
			if age < len(b.results) {
				b.results[age] = res
			} else {
				b.overflow.Add(1)
			}
		}
	}
}

func (b *bank) access(x xfer) stm.Access {
	vs := make([]*stm.Var, 0, 2+x.k)
	vs = append(vs, &b.accounts[x.from], &b.accounts[x.to])
	for i := 0; i < x.k; i++ {
		vs = append(vs, &b.accounts[x.extra[i]])
	}
	return stm.Touches(vs...)
}

// codec decodes wire payloads into bodies over this bank. Payloads
// arrive already encoded, so Encode only passes bytes through.
func (b *bank) codec() stm.Codec {
	return stm.CodecFunc{
		EncodeFunc: func(payload any) ([]byte, error) {
			data, ok := payload.([]byte)
			if !ok {
				return nil, fmt.Errorf("bench: unexpected payload %T", payload)
			}
			return data, nil
		},
		DecodeFunc: func(data []byte) (stm.Body, error) {
			x, err := parsePayload(data, len(b.accounts))
			if err != nil {
				return nil, err
			}
			return b.body(x), nil
		},
	}
}

func (b *bank) snapshotter() stm.Snapshotter {
	return stm.SnapshotterFuncs{
		SnapshotFunc: func() ([]byte, error) { return stm.SnapshotVars(b.accounts), nil },
		RestoreFunc:  func(data []byte) error { return stm.RestoreVars(b.accounts, data) },
	}
}

// balances reads the accounts raw; call only on a drained stack.
func (b *bank) balances() []uint64 {
	out := make([]uint64, len(b.accounts))
	for i := range b.accounts {
		out[i] = b.accounts[i].Load()
	}
	return out
}

// oracle is the sequential fold in age order: the reference every
// engine, log, replica and recovery is compared against. It shares no
// code with body.
type oracle struct {
	bal  []uint64
	next uint64
}

func newOracle(accounts int) *oracle {
	o := &oracle{bal: make([]uint64, accounts)}
	for i := range o.bal {
		o.bal[i] = initialBalance
	}
	return o
}

// apply folds the transaction at age o.next and returns its result.
func (o *oracle) apply(x xfer) uint64 {
	bf := o.bal[x.from]
	sum := bf
	for i := 0; i < x.k; i++ {
		sum += o.bal[x.extra[i]]
	}
	amt := sum%7 + o.next%3
	res := bf
	if x.from != x.to && bf >= amt {
		res = bf - amt
		o.bal[x.from] = res
		o.bal[x.to] += amt
	}
	o.next++
	return res
}

// inputs is one client's pre-generated payloads, fixed stride, no
// pointers for the collector to chase. Submission i of the client
// carries payload i % n.
type inputs struct {
	flat   []byte
	stride int
	n      int
}

func (in inputs) at(i int) []byte {
	j := (i % in.n) * in.stride
	return in.flat[j : j+in.stride : j+in.stride]
}

// layout says which accounts a transaction may draw from. With parts
// set (sharded workloads) every account of a transaction comes from
// one partition, except that a cross transaction takes its receiver
// from another.
type layout struct {
	accounts  int
	k         int
	parts     [][]uint32
	crossFrac float64
}

// genInputs makes n payloads as a pure function of (seed, client,
// index).
func genInputs(seed uint64, client, n int, l layout) inputs {
	in := inputs{stride: payloadLen(l.k), n: n}
	in.flat = make([]byte, 0, n*in.stride)
	for i := 0; i < n; i++ {
		h := rng.Mix64(rng.Mix64(seed) ^ rng.Mix64(uint64(client)<<32|uint64(i)))
		draw := func() uint64 { h = rng.Mix64(h); return h }
		pick := func(part int) uint32 {
			if l.parts == nil {
				return uint32(draw() % uint64(l.accounts))
			}
			p := l.parts[part]
			return p[draw()%uint64(len(p))]
		}
		x := xfer{k: l.k}
		home, away := 0, 0
		if l.parts != nil {
			home = int(draw() % uint64(len(l.parts)))
			away = home
			if float64(draw()>>11)/(1<<53) < l.crossFrac {
				away = (home + 1 + int(draw()%uint64(len(l.parts)-1))) % len(l.parts)
			}
		}
		x.from = pick(home)
		x.to = pick(away)
		for j := 0; j < l.k; j++ {
			x.extra[j] = pick(home)
		}
		in.flat = appendPayload(in.flat, x)
	}
	return in
}
