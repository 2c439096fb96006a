package meta

// Table is a fixed-size striped lock table. Each engine instantiates it
// with its own lock-record type L; a Var is mapped to a record by
// Fibonacci-hashing its id down to the table's index width. As in the
// paper's implementation ("a single lock might be responsible for
// multiple addresses"), distinct variables may alias to the same
// record, which produces false conflicts; TableBits trades memory for
// aliasing rate.
type Table[L any] struct {
	shift   uint
	entries []L
}

const fibMult = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// MinTableBits and MaxTableBits bound the configurable table size.
const (
	MinTableBits = 4
	MaxTableBits = 26
)

// NewTable allocates a table with 1<<bits records. Bits outside
// [MinTableBits, MaxTableBits] are clamped.
func NewTable[L any](bits uint) *Table[L] {
	if bits < MinTableBits {
		bits = MinTableBits
	}
	if bits > MaxTableBits {
		bits = MaxTableBits
	}
	return &Table[L]{shift: 64 - bits, entries: make([]L, 1<<bits)}
}

// Of returns the lock record covering v.
func (t *Table[L]) Of(v *Var) *L { return t.OfID(v.ID()) }

// OfID returns the lock record covering a variable id.
func (t *Table[L]) OfID(id uint64) *L {
	return &t.entries[(id*fibMult)>>t.shift]
}

// Index returns the record index covering a variable id (for tests and
// signature hashing).
func (t *Table[L]) Index(id uint64) uint64 { return (id * fibMult) >> t.shift }

// Len returns the number of records.
func (t *Table[L]) Len() int { return len(t.entries) }
