package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/orderedstm/ostm/stm"
	"github.com/orderedstm/ostm/stm/shard"
	"github.com/orderedstm/ostm/stm/wal"
)

// The durable payload wire format (bench-local; the library only sees
// opaque bytes through its Codec):
//
//	u8  op (0 transfer, 1 warm-all, 2 warm-shard)
//	transfer:   u32 from | u32 to | u16 n | n × u32 extra
//	warm-shard: u16 shard
const (
	opTransfer  = 0
	opWarmAll   = 1
	opWarmShard = 2
)

// txnPayload is the application-level payload, framed by
// encodePayload/appendTransfer before submission.
type txnPayload struct {
	op       byte
	from, to uint32
	extra    []uint32
	shard    uint16
}

func encodePayload(p txnPayload) ([]byte, error) {
	switch p.op {
	case opTransfer:
		return appendTransfer(make([]byte, 0, 11+4*len(p.extra)), p), nil
	case opWarmAll:
		return []byte{opWarmAll}, nil
	case opWarmShard:
		return binary.LittleEndian.AppendUint16([]byte{opWarmShard}, p.shard), nil
	default:
		return nil, fmt.Errorf("streambench: unknown payload op %d", p.op)
	}
}

// mustEncode frames a payload built by the bench itself (its ops are
// all known, so an error is a bench bug).
func mustEncode(p txnPayload) []byte {
	data, err := encodePayload(p)
	if err != nil {
		fatal(err)
	}
	return data
}

// appendTransfer frames a transfer payload into dst (append-style, so
// a closed-loop client can recycle its wire buffer — SubmitEncoded
// releases the bytes when the ticket resolves).
func appendTransfer(dst []byte, p txnPayload) []byte {
	dst = append(dst, opTransfer)
	dst = binary.LittleEndian.AppendUint32(dst, p.from)
	dst = binary.LittleEndian.AppendUint32(dst, p.to)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.extra)))
	for _, e := range p.extra {
		dst = binary.LittleEndian.AppendUint32(dst, e)
	}
	return dst
}

func decodePayload(data []byte) (txnPayload, error) {
	if len(data) == 0 {
		return txnPayload{}, fmt.Errorf("streambench: empty payload")
	}
	switch data[0] {
	case opTransfer:
		if len(data) < 11 {
			return txnPayload{}, fmt.Errorf("streambench: short transfer payload")
		}
		p := txnPayload{
			op:   opTransfer,
			from: binary.LittleEndian.Uint32(data[1:5]),
			to:   binary.LittleEndian.Uint32(data[5:9]),
		}
		n := int(binary.LittleEndian.Uint16(data[9:11]))
		if len(data) != 11+4*n {
			return txnPayload{}, fmt.Errorf("streambench: transfer payload length %d != %d", len(data), 11+4*n)
		}
		for k := 0; k < n; k++ {
			p.extra = append(p.extra, binary.LittleEndian.Uint32(data[11+4*k:15+4*k]))
		}
		return p, nil
	case opWarmAll:
		return txnPayload{op: opWarmAll}, nil
	case opWarmShard:
		if len(data) != 3 {
			return txnPayload{}, fmt.Errorf("streambench: short warm-shard payload")
		}
		return txnPayload{op: opWarmShard, shard: binary.LittleEndian.Uint16(data[1:3])}, nil
	default:
		return txnPayload{}, fmt.Errorf("streambench: unknown payload op %d", data[0])
	}
}

// checkTransfer validates a transfer's frame and indices against the
// pool without materializing an index slice.
func checkTransfer(accounts []stm.Var, data []byte) error {
	if len(data) < 11 || data[0] != opTransfer {
		return fmt.Errorf("streambench: malformed transfer payload")
	}
	from := binary.LittleEndian.Uint32(data[1:5])
	to := binary.LittleEndian.Uint32(data[5:9])
	n := int(binary.LittleEndian.Uint16(data[9:11]))
	if len(data) != 11+4*n {
		return fmt.Errorf("streambench: transfer payload length %d != %d", len(data), 11+4*n)
	}
	if int(from) >= len(accounts) || int(to) >= len(accounts) {
		return fmt.Errorf("streambench: transfer %d→%d outside pool %d (recover with the original -pool)", from, to, len(accounts))
	}
	for k := 0; k < n; k++ {
		if e := binary.LittleEndian.Uint32(data[11+4*k:]); int(e) >= len(accounts) {
			return fmt.Errorf("streambench: extra read %d outside pool %d", e, len(accounts))
		}
	}
	return nil
}

// transferBody builds the canonical transfer body over the account
// pool — with a WAL attached, both live execution and recovery replay
// run exactly this decoded code path. The body parses the validated
// wire form in place on each execution instead of materializing an
// index slice: the decode path runs once per live submission, so it
// stays lean — one closure, no scratch allocations.
func transferBody(accounts []stm.Var, data []byte) (stm.Body, error) {
	if err := checkTransfer(accounts, data); err != nil {
		return nil, err
	}
	from := binary.LittleEndian.Uint32(data[1:5])
	to := binary.LittleEndian.Uint32(data[5:9])
	n := int(binary.LittleEndian.Uint16(data[9:11]))
	return func(tx stm.Tx, age int) {
		b := tx.Read(&accounts[from])
		for k := 0; k < n; k++ {
			b += tx.Read(&accounts[binary.LittleEndian.Uint32(data[11+4*k:])])
		}
		amt := b % 7
		cur := tx.Read(&accounts[from])
		if cur >= amt {
			tx.Write(&accounts[from], cur-amt)
			tx.Write(&accounts[to], tx.Read(&accounts[to])+amt)
		}
	}, nil
}

// typedBenchCodec builds the -typed -wal bridge: the same wire format
// as benchCodec (so -recover drives either run's log), decoded into
// typed transfer Funcs over the TVar pool whose results the latched
// tickets report.
func typedBenchCodec(tacc []stm.TVar[uint64]) *stm.TypedCodec[*txnPayload, uint64] {
	return stm.CodecOf(
		func(p *txnPayload) ([]byte, error) { return encodePayload(*p) },
		func(data []byte) (*txnPayload, error) {
			p, err := decodePayload(data)
			if err != nil {
				return nil, err
			}
			if p.op == opTransfer {
				if int(p.from) >= len(tacc) || int(p.to) >= len(tacc) {
					return nil, fmt.Errorf("streambench: transfer %d→%d outside pool %d", p.from, p.to, len(tacc))
				}
				for _, e := range p.extra {
					if int(e) >= len(tacc) {
						return nil, fmt.Errorf("streambench: extra read %d outside pool %d", e, len(tacc))
					}
				}
			}
			return &p, nil
		},
		func(p *txnPayload) stm.Func[uint64] {
			if p.op != opTransfer { // warm ops: read-only, state-neutral
				return func(tx stm.Tx, _ int) uint64 {
					for i := range tacc {
						stm.ReadT(tx, &tacc[i])
					}
					return 0
				}
			}
			from, to, extra := p.from, p.to, p.extra
			return func(tx stm.Tx, _ int) uint64 {
				b := stm.ReadT(tx, &tacc[from])
				for _, e := range extra {
					b += stm.ReadT(tx, &tacc[e])
				}
				amt := b % 7
				cur := stm.ReadT(tx, &tacc[from])
				if cur >= amt {
					stm.WriteT(tx, &tacc[from], cur-amt)
					stm.WriteT(tx, &tacc[to], stm.ReadT(tx, &tacc[to])+amt)
					return cur - amt
				}
				return cur
			}
		},
	)
}

// benchCodec is the unsharded stm.Codec over the account pool.
type benchCodec struct{ accounts []stm.Var }

// encodeAny is the Codec face of encodePayload; the bench itself
// submits bytes it framed, so only a Codec caller reaches it.
func encodeAny(payload any) ([]byte, error) {
	p, ok := payload.(txnPayload)
	if !ok {
		return nil, fmt.Errorf("streambench: unexpected payload %T", payload)
	}
	return encodePayload(p)
}

func (c benchCodec) Encode(payload any) ([]byte, error) { return encodeAny(payload) }

func (c benchCodec) Decode(data []byte) (stm.Body, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("streambench: empty payload")
	}
	switch data[0] {
	case opTransfer:
		return transferBody(c.accounts, data)
	case opWarmAll, opWarmShard: // warm ops: read-only, state-neutral
		accounts := c.accounts
		return func(tx stm.Tx, _ int) {
			for i := range accounts {
				tx.Read(&accounts[i])
			}
		}, nil
	default:
		return nil, fmt.Errorf("streambench: unknown payload op %d", data[0])
	}
}

// shardCodec is the sharded shard.Codec: it also reconstructs the
// access declaration, using the live router's partition layout for
// the warm-shard op.
type shardCodec struct {
	accounts []stm.Var
	buckets  [][]int // account indices per owning shard
}

func (c shardCodec) Encode(payload any) ([]byte, error) { return encodeAny(payload) }

func (c shardCodec) Decode(data []byte) (stm.Access, stm.Body, error) {
	if len(data) == 0 {
		return stm.Access{}, nil, fmt.Errorf("streambench: empty payload")
	}
	switch data[0] {
	case opTransfer:
		// One parse: transferBody validates the frame in place, and
		// the access list is read straight off the same bytes.
		body, err := transferBody(c.accounts, data)
		if err != nil {
			return stm.Access{}, nil, err
		}
		n := int(binary.LittleEndian.Uint16(data[9:11]))
		vars := make([]*stm.Var, 0, 2+n)
		vars = append(vars,
			&c.accounts[binary.LittleEndian.Uint32(data[1:5])],
			&c.accounts[binary.LittleEndian.Uint32(data[5:9])])
		for k := 0; k < n; k++ {
			vars = append(vars, &c.accounts[binary.LittleEndian.Uint32(data[11+4*k:])])
		}
		return stm.Touches(vars...), body, nil
	case opWarmShard:
		p, err := decodePayload(data)
		if err != nil {
			return stm.Access{}, nil, err
		}
		if int(p.shard) >= len(c.buckets) {
			return stm.Access{}, nil, fmt.Errorf("streambench: warm-shard %d outside %d shards (recover with the original -shards)", p.shard, len(c.buckets))
		}
		bk := c.buckets[p.shard]
		accounts := c.accounts
		vars := make([]*stm.Var, len(bk))
		for i, idx := range bk {
			vars[i] = &accounts[idx]
		}
		return stm.Touches(vars...), func(tx stm.Tx, _ int) {
			for _, v := range vars {
				tx.Read(v)
			}
		}, nil
	case opWarmAll:
		accounts := c.accounts
		return stm.TouchesAll(), func(tx stm.Tx, _ int) {
			for i := range accounts {
				tx.Read(&accounts[i])
			}
		}, nil
	default:
		return stm.Access{}, nil, fmt.Errorf("streambench: unknown payload op %d", data[0])
	}
}

// parseSyncPolicy maps the -sync flag to wal.Options: "none", an
// integer N (fsync every N commits), a duration (fsync at least that
// often while dirty), or "adaptive" (pipelined groups sized to the
// storage's observed fsync latency).
func parseSyncPolicy(s string) (wal.Options, error) {
	if s == "" || s == "none" {
		return wal.Options{}, nil
	}
	if s == "adaptive" {
		return wal.Options{Adaptive: true}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return wal.Options{}, fmt.Errorf("streambench: -sync %d must be positive", n)
		}
		return wal.Options{SyncEveryN: n}, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		if d <= 0 {
			return wal.Options{}, fmt.Errorf("streambench: -sync %v must be positive", d)
		}
		return wal.Options{SyncInterval: d}, nil
	}
	return wal.Options{}, fmt.Errorf("streambench: -sync must be none, adaptive, an integer, or a duration (got %q)", s)
}

// recoveryReport is the -recover JSON document the CI crash smoke
// jq-verifies. replayed_txns counts only the log suffix actually
// replayed (above the checkpoint, when one was loaded); recovered_txns
// is its legacy alias. recovery_ms is the end-to-end restart cost —
// log scan + checkpoint restore + suffix replay — the number the
// checkpoint interval bounds.
type recoveryReport struct {
	Bench         string  `json:"bench"`
	Algorithm     string  `json:"algorithm"`
	Shards        int     `json:"shards"`
	Pool          int     `json:"pool"`
	RecoveredTxns int     `json:"recovered_txns"`
	ReplayedTxns  int     `json:"replayed_txns"`
	FirstAge      uint64  `json:"first_age"`
	NextAge       uint64  `json:"next_age"`
	Truncated     bool    `json:"truncated"`
	HasCheckpoint bool    `json:"has_checkpoint"`
	CheckpointAge uint64  `json:"checkpoint_age"`
	SkippedTxns   int     `json:"skipped_txns"`
	SkippedBytes  uint64  `json:"skipped_bytes"`
	StateMatch    bool    `json:"state_match"`
	RecoveryMS    float64 `json:"recovery_ms"`
	ReplayS       float64 `json:"replay_s"`
	ReplayTxPerS  float64 `json:"replay_tx_per_s"`
}

// runRecovery is streambench's crash-recovery driver: open the log,
// truncate any torn tail, replay the surviving prefix through the
// selected front-end (the same -alg/-shards/-pool as the crashed
// run), and verify the rebuilt state against a plain sequential fold
// of the recorded payloads. state_match=true is the machine-checkable
// form of "recovery ≡ replay ≡ sequential execution of the durable
// prefix".
func runRecovery(dir string, alg stm.Algorithm, shards, workers, pool int, emitJSON bool) {
	recoverStart := time.Now()
	rec, err := wal.Recover(dir)
	if err != nil {
		fatal(err)
	}
	accounts := stm.NewVars(pool)
	for i := range accounts {
		accounts[i].Store(1000)
	}
	// Checkpoint-seeded restart: restore the snapshot into the pool
	// (and, sharded, recover the per-shard local-age watermarks), then
	// replay only the suffix the checkpoint does not cover.
	var localFirst []uint64
	if rec.HasCheckpoint() {
		app := rec.CheckpointState()
		if shards > 0 {
			ln, a, err := shard.DecodeCheckpoint(app)
			if err != nil {
				fatal(err)
			}
			localFirst, app = ln, a
		}
		if err := stm.RestoreVars(accounts, app); err != nil {
			fatal(fmt.Errorf("%w (recover with the original -pool and -shards)", err))
		}
	}
	// Reopen the log so the replay flows through a fully durable
	// pipeline exactly as a live restart would; re-appends of
	// recovered ages are no-ops, so verification leaves the log
	// untouched.
	w, err := rec.Writer(wal.Options{})
	if err != nil {
		fatal(err)
	}
	// The replayed payloads, kept for the oracle below.
	replayed := make([][]byte, 0, rec.Count())
	start := time.Now()
	if shards == 0 {
		p, err := stm.NewPipeline(stm.Config{
			Algorithm: alg,
			Workers:   workers,
			Codec:     benchCodec{accounts: accounts},
			WAL:       w,
			FirstAge:  rec.First(),
		})
		if err != nil {
			fatal(err)
		}
		if err := rec.Replay(func(age uint64, payload []byte) error {
			replayed = append(replayed, payload)
			_, err := p.SubmitEncoded(payload)
			return err
		}); err != nil {
			fatal(err)
		}
		if err := p.Close(); err != nil {
			fatal(err)
		}
	} else {
		sp, err := shard.New(shard.Config{
			Shards:         shards,
			Pipeline:       stm.Config{Algorithm: alg, Workers: workers, FirstAge: rec.First()},
			WAL:            w,
			Codec:          newShardCodec(nil, accounts, shards),
			LocalFirstAges: localFirst,
		})
		if err != nil {
			fatal(err)
		}
		if err := rec.Replay(func(age uint64, payload []byte) error {
			replayed = append(replayed, payload)
			_, err := sp.SubmitEncoded(payload)
			return err
		}); err != nil {
			fatal(err)
		}
		if err := sp.Close(); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)
	total := time.Since(recoverStart)
	if err := w.Close(); err != nil {
		fatal(err)
	}

	// Sequential oracle: fold the recorded payload semantics over
	// plain integers in age order — seeded from the checkpoint
	// snapshot when one was loaded, since the folded prefix below it
	// is gone from the log.
	model := make([]uint64, pool)
	for i := range model {
		model[i] = 1000
	}
	if rec.HasCheckpoint() {
		app := rec.CheckpointState()
		if shards > 0 {
			_, app, _ = shard.DecodeCheckpoint(app)
		}
		for i := range model {
			model[i] = binary.LittleEndian.Uint64(app[8*i:])
		}
	}
	for _, payload := range replayed {
		p, err := decodePayload(payload)
		if err != nil {
			fatal(err)
		}
		if p.op != opTransfer {
			continue // warm ops are read-only
		}
		b := model[p.from]
		for _, e := range p.extra {
			b += model[e]
		}
		amt := b % 7
		if model[p.from] >= amt {
			model[p.from] -= amt
			model[p.to] += amt
		}
	}
	match := true
	for i := range model {
		if accounts[i].Load() != model[i] {
			match = false
			if !emitJSON {
				fmt.Printf("  MISMATCH account %d: replayed=%d model=%d\n", i, accounts[i].Load(), model[i])
			}
		}
	}

	skippedN, skippedB := rec.Skipped()
	rep := recoveryReport{
		Bench:         "stream-recovery",
		Algorithm:     alg.String(),
		Shards:        shards,
		Pool:          pool,
		RecoveredTxns: rec.Count(),
		ReplayedTxns:  rec.Count(),
		FirstAge:      rec.First(),
		NextAge:       rec.Next(),
		Truncated:     rec.Truncated(),
		HasCheckpoint: rec.HasCheckpoint(),
		CheckpointAge: rec.CheckpointAge(),
		SkippedTxns:   skippedN,
		SkippedBytes:  skippedB,
		StateMatch:    match,
		RecoveryMS:    float64(total.Nanoseconds()) / 1e6,
		ReplayS:       elapsed.Seconds(),
		ReplayTxPerS:  stm.Throughput(uint64(rec.Count()), elapsed),
	}
	if emitJSON {
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("%s recovery  shards=%d\n", rep.Algorithm, rep.Shards)
		fmt.Printf("  %d records (ages %d..%d, torn tail: %v) replayed in %.3fs → %.0f tx/s\n",
			rep.RecoveredTxns, rep.FirstAge, rep.NextAge, rep.Truncated, rep.ReplayS, rep.ReplayTxPerS)
		if rep.HasCheckpoint {
			fmt.Printf("  checkpoint at age %d restored; %d prefix records (%d bytes) skipped\n",
				rep.CheckpointAge, rep.SkippedTxns, rep.SkippedBytes)
		}
		fmt.Printf("  total recovery %.1fms; state match vs sequential fold: %v\n", rep.RecoveryMS, rep.StateMatch)
	}
	if !match {
		os.Exit(1)
	}
}

// newShardCodec builds the sharded codec; buckets are derived from
// the pool layout under the given shard count (sp may be nil before
// the router exists — the mapping is the stable meta.ShardOf).
func newShardCodec(buckets [][]int, accounts []stm.Var, shards int) shardCodec {
	if buckets == nil {
		buckets = make([][]int, shards)
		for i := range accounts {
			s := shard.Of(&accounts[i], shards)
			buckets[s] = append(buckets[s], i)
		}
	}
	return shardCodec{accounts: accounts, buckets: buckets}
}
