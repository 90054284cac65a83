package engine

// The memo's storage: every solved design and rollout point, held in
// memory the garbage collector never scans. It has three parts, none
// of which holds a pointer:
//
//   - a slab of fixed-size slots, each the served numbers (entry) plus
//     the key's arena reference and hash;
//   - an arena of packed keys, each a uvarint length and the key bytes;
//   - one open-addressing index of slot references, keyed by a seeded
//     hash/maphash hash of the packed key.
//
// Slab and arena grow in chunks that double up to a fixed cap and are
// never copied or moved; only the index is rebuilt, at twice the size,
// when it passes its load factor. A packed key names each tier by an
// interned label id and its replica count, as uvarints; a rollout point
// adds a zero marker and its per-tier patched counts. The label table
// is the one part with pointers, and it holds one entry per distinct
// tier label (role and stack) the memo has seen.

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"iter"
	"math/bits"
	"slices"
	"strings"

	"redpatch/internal/paperdata"
)

// slot is one memo entry: the served numbers and where its packed key
// sits in the arena. key and hash fill the padding entry's eight-byte
// alignment would leave, so a slot is 104 bytes.
type slot struct {
	key  uint32 // arena reference: chunk<<arenaOffBits | offset
	hash uint32 // the low 32 bits of the key's hash
	val  entry
}

const (
	// A slot reference is chunk<<slabOffBits | offset; a full slab
	// chunk holds 1<<slabOffBits slots (104 KiB), the first slabFirst.
	slabOffBits = 10
	slabFirst   = 16
	// An arena reference is chunk<<arenaOffBits | offset; a full arena
	// chunk holds 1<<arenaOffBits bytes, the first arenaFirst. A key
	// longer than a full chunk gets a chunk of its own at offset 0.
	arenaOffBits = 16
	arenaFirst   = 256
	// The index stays at most maxLoadNum/maxLoadDen full.
	maxLoadNum, maxLoadDen = 3, 4
	minIndex               = 8
	// rolloutMark separates a rollout point's patched counts from its
	// tiers. Label ids start at 1, so no tier starts with it.
	rolloutMark = 0
)

// tierLabel is a tier's identity in a key: its role and the stack it
// runs, the two parts of "role" or "role/stack" in a text key.
type tierLabel struct{ role, stack string }

// memo maps packed keys to entries. It is not safe for concurrent use;
// the engine guards it with g.mu.
type memo struct {
	seed maphash.Seed
	// index holds slot references plus one; 0 marks an empty bucket.
	// Its length is zero or a power of two.
	index []uint32
	slots [][]slot
	arena [][]byte
	n     int

	ids    map[tierLabel]uint32
	labels []tierLabel // labels[id-1]
}

func newMemo() memo { return memo{seed: maphash.MakeSeed()} }

// appendKey appends spec's packed key to b, with patched's counts for a
// rollout point (nil for a design). A tier label the memo has not seen
// is interned when intern is set; otherwise appendKey reports false,
// since no stored key can hold it. spec must be valid.
func (m *memo) appendKey(b []byte, spec paperdata.DesignSpec, patched []int, intern bool) ([]byte, bool) {
	for _, t := range spec.Tiers {
		id := m.labelID(t, intern)
		if id == 0 {
			return b, false
		}
		b = appendTier(b, id, t.Replicas)
	}
	if patched != nil {
		b = appendPoint(b, patched)
	}
	return b, true
}

// labelID returns the id of t's label, interning a label the memo has
// not seen when intern is set; otherwise such a label's id is 0.
func (m *memo) labelID(t paperdata.TierSpec, intern bool) uint32 {
	l := tierLabel{t.Role, t.Stack()}
	id := m.ids[l]
	if id == 0 && intern {
		id = m.intern(l)
	}
	return id
}

// appendTier appends one tier of a packed key to b: its label id and
// replica count.
func appendTier(b []byte, id uint32, replicas int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(id)), uint64(replicas))
}

// appendPoint appends a rollout point's end of a packed key to b: the
// marker and the per-tier patched counts.
func appendPoint(b []byte, patched []int) []byte {
	b = append(b, rolloutMark)
	for _, p := range patched {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return b
}

// intern adds l to the label table and returns its id. The strings are
// copied, so the table never keeps a request or a dump alive.
func (m *memo) intern(l tierLabel) uint32 {
	role := strings.Clone(l.role)
	stack := role
	if l.stack != l.role {
		stack = strings.Clone(l.stack)
	}
	m.labels = append(m.labels, tierLabel{role, stack})
	id := uint32(len(m.labels))
	if m.ids == nil {
		m.ids = make(map[tierLabel]uint32)
	}
	m.ids[m.labels[id-1]] = id
	return id
}

func (m *memo) hash(k []byte) uint32 { return uint32(maphash.Bytes(m.seed, k)) }

func (m *memo) slot(ref uint32) *slot {
	return &m.slots[ref>>slabOffBits][ref&(1<<slabOffBits-1)]
}

// key returns the packed key stored at arena reference ref.
func (m *memo) key(ref uint32) []byte {
	c := m.arena[ref>>arenaOffBits][ref&(1<<arenaOffBits-1):]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// find probes the index for k (hash h) and returns the bucket holding
// it, or the empty bucket that ends its probe sequence. The probe steps
// grow by one each time, which visits every bucket of a power-of-two
// table. The index must not be empty.
func (m *memo) find(k []byte, h uint32) (int, bool) {
	mask := len(m.index) - 1
	for p, step := int(h)&mask, 1; ; p, step = (p+step)&mask, step+1 {
		r := m.index[p]
		if r == 0 {
			return p, false
		}
		if s := m.slot(r - 1); s.hash == h && bytes.Equal(m.key(s.key), k) {
			return p, true
		}
	}
}

// get returns the entry stored under k.
func (m *memo) get(k []byte) (entry, bool) { return m.lookup(k, m.hash(k)) }

// lookup is get for a key whose hash the caller has.
func (m *memo) lookup(k []byte, h uint32) (entry, bool) {
	if m.n == 0 {
		return entry{}, false
	}
	p, ok := m.find(k, h)
	if !ok {
		return entry{}, false
	}
	return m.slot(m.index[p] - 1).val, true
}

// put stores v under k and reports whether k is new. An entry already
// under k is overwritten, unless keep is set.
func (m *memo) put(k []byte, v entry, keep bool) bool {
	return m.putHashed(k, m.hash(k), v, keep)
}

// putHashed is put for a key whose hash the caller has.
func (m *memo) putHashed(k []byte, h uint32, v entry, keep bool) bool {
	var p int
	if len(m.index) > 0 {
		var ok bool
		if p, ok = m.find(k, h); ok {
			if !keep {
				m.slot(m.index[p] - 1).val = v
			}
			return false
		}
	}
	if (m.n+1)*maxLoadDen > len(m.index)*maxLoadNum {
		m.reserve(m.n + 1)
		p, _ = m.find(k, h)
	}
	ref := m.newSlot()
	*m.slot(ref) = slot{key: m.store(k), hash: h, val: v}
	m.index[p] = ref + 1
	m.n++
	return true
}

// reserve grows the index, by doubling, until it holds n entries within
// its load factor. Rebuilding it reads the slots' hashes in slab order;
// slab and arena stay where they are.
func (m *memo) reserve(n int) {
	size := max(len(m.index), minIndex)
	for n*maxLoadDen > size*maxLoadNum {
		size *= 2
	}
	if size == len(m.index) {
		return
	}
	m.index = make([]uint32, size)
	mask := size - 1
	for c, chunk := range m.slots {
		for off, s := range chunk {
			p := int(s.hash) & mask
			for step := 1; m.index[p] != 0; step++ {
				p = (p + step) & mask
			}
			m.index[p] = uint32(c<<slabOffBits|off) + 1
		}
	}
}

// newSlot appends a zero slot to the slab and returns its reference.
func (m *memo) newSlot() uint32 {
	last := len(m.slots) - 1
	if last < 0 || len(m.slots[last]) == cap(m.slots[last]) {
		// A slot reference plus one must fit the index's uint32: about
		// 2^32 slots, 446 GB of slab, far past the memory of any host.
		if len(m.slots) == 1<<(32-slabOffBits)-1 {
			panic("engine: memo slab full")
		}
		m.slots = append(m.slots, make([]slot, 0, min(slabFirst<<min(len(m.slots), slabOffBits), 1<<slabOffBits)))
		last++
	}
	off := len(m.slots[last])
	m.slots[last] = append(m.slots[last], slot{})
	return uint32(last<<slabOffBits | off)
}

// store copies k into the arena, behind its length, and returns its
// reference.
func (m *memo) store(k []byte) uint32 {
	need := (bits.Len64(uint64(len(k))|1)+6)/7 + len(k) // uvarint length, key

	last := len(m.arena) - 1
	if last < 0 || cap(m.arena[last])-len(m.arena[last]) < need {
		// A chunk number must fit its 16 bits of a reference. Full
		// chunks are on average at least half full, so 65,536 chunks
		// hold over 2 GiB of packed keys, about 200 million entries.
		if len(m.arena) == 1<<(32-arenaOffBits) {
			panic("engine: memo arena full")
		}
		m.arena = append(m.arena, make([]byte, 0, max(min(arenaFirst<<min(len(m.arena), arenaOffBits), 1<<arenaOffBits), need)))
		last++
	}
	c := m.arena[last]
	ref := uint32(last<<arenaOffBits | len(c))
	m.arena[last] = append(binary.AppendUvarint(c, uint64(len(k))), k...)
	return ref
}

// all yields every stored key and its entry, in slab order. Both alias
// the memo's chunks, which never move.
func (m *memo) all() iter.Seq2[[]byte, *entry] {
	return func(yield func([]byte, *entry) bool) {
		for _, chunk := range m.slots {
			for i := range chunk {
				if !yield(m.key(chunk[i].key), &chunk[i].val) {
					return
				}
			}
		}
	}
}

// frozen returns a copy of the memo that later puts never touch: its
// slots, and the arena chunks and labels they reach, which later puts
// only append to. It takes O(n) and is made under the engine's lock so
// that the copy's keys can be rendered after the lock is released. The
// copy has no index; it serves all and appendText only.
func (m *memo) frozen() memo {
	flat := make([]slot, 0, m.n)
	for _, chunk := range m.slots {
		flat = append(flat, chunk...)
	}
	return memo{
		slots:  [][]slot{flat},
		arena:  slices.Clone(m.arena),
		labels: m.labels,
		n:      m.n,
	}
}

// labelIDs returns this memo's id for each of labels, a part's label
// table as a KeyScanner numbers it (label x at index x-1), interning
// those the memo has not seen. same reports that every label keeps its
// number, so the part's packed keys are already this memo's.
func (m *memo) labelIDs(labels []paperdata.TierSpec) (ids []uint32, same bool) {
	ids = make([]uint32, len(labels))
	same = true
	for i, t := range labels {
		ids[i] = m.labelID(t, true)
		same = same && ids[i] == uint32(i+1)
	}
	return ids, same
}

// translate appends packed key k to b with its label ids mapped: label
// x becomes ids[x-1].
func translate(b, k []byte, ids []uint32) []byte {
	rollout := false
	for len(k) > 0 {
		x, w := binary.Uvarint(k)
		k = k[w:]
		switch {
		case rollout:
			b = binary.AppendUvarint(b, x)
		case x == rolloutMark:
			rollout = true
			b = append(b, rolloutMark)
		default:
			r, w := binary.Uvarint(k)
			k = k[w:]
			b = appendTier(b, ids[x-1], int(r))
		}
	}
	return b
}

// keyScratch is the spec and counts appendText decodes a key into,
// reused across keys.
type keyScratch struct {
	tiers   []paperdata.TierSpec
	patched []int
}

// appendText appends the text form of packed key k: DesignSpec.Key's
// for a design, AppendRolloutKey's for a rollout point, which it also
// reports.
func (m *memo) appendText(b, k []byte, sc *keyScratch) ([]byte, bool) {
	spec := paperdata.DesignSpec{Tiers: sc.tiers[:0]}
	patched, rollout := sc.patched[:0], false
	for len(k) > 0 {
		x, w := binary.Uvarint(k)
		k = k[w:]
		switch {
		case rollout:
			patched = append(patched, int(x))
		case x == rolloutMark:
			rollout = true
		default:
			r, w := binary.Uvarint(k)
			k = k[w:]
			l := m.labels[x-1]
			spec.Tiers = append(spec.Tiers, paperdata.TierSpec{Role: l.role, Replicas: int(r), Variant: l.stack})
		}
	}
	sc.tiers, sc.patched = spec.Tiers, patched
	if rollout {
		return spec.AppendRolloutKey(b, patched), true
	}
	return spec.AppendKey(b), false
}
