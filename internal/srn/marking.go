package srn

// Marking is a token count per place, indexed by place creation order.
// Guards, rate functions and reward functions receive the marking and read
// it through Tokens, mirroring the #P notation of the paper's Table III.
type Marking []int

// Tokens returns the number of tokens in place p (the paper's "#P").
func (m Marking) Tokens(p *Place) int { return m[p.index] }

// appendKey appends a compact map key identifying the marking to b.
// Token counts in the models of this repository are tiny (bounded by
// server replica counts), so one byte per place suffices; the rare
// larger count falls back to a multi-byte big-endian encoding with an
// escape byte. Probing a map with m[string(key)] on a reused buffer
// allocates nothing; only an insert needs the key as a string.
func (m Marking) appendKey(b []byte) []byte {
	for _, c := range m {
		if c < 255 {
			b = append(b, byte(c))
			continue
		}
		b = append(b, 255,
			byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return b
}

// clone returns a copy of the marking.
func (m Marking) clone() Marking {
	out := make(Marking, len(m))
	copy(out, m)
	return out
}
