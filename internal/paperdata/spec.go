package paperdata

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"redpatch/internal/topology"
)

// TierSpec is one redundancy group of a role-keyed design: Replicas
// servers serving the logical tier Role. Variant, when non-empty, selects
// an alternate software stack for the group (e.g. RoleWebAlt for a web
// tier) with its own vulnerability set and patch plan; empty means the
// role's own stack. Several TierSpecs may share a Role — they then form
// one heterogeneous logical tier (the paper's §V variant deployment),
// available while any server across the groups is up. The JSON tags are
// the wire shape of a tier everywhere one is served or stored.
type TierSpec struct {
	Role     string `json:"role"`
	Replicas int    `json:"replicas"`
	Variant  string `json:"variant,omitempty"`
}

// Stack returns the software-stack role the group's servers run: the
// variant when one is set (and differs from the role), the role itself
// otherwise.
func (t TierSpec) Stack() string {
	if t.Variant != "" && t.Variant != t.Role {
		return t.Variant
	}
	return t.Role
}

// appendLabel appends the tier's text in names and keys to b: "role" or
// "role/variant".
func (t TierSpec) appendLabel(b []byte) []byte {
	b = append(b, t.Role...)
	if s := t.Stack(); s != t.Role {
		b = append(append(b, '/'), s...)
	}
	return b
}

// DesignSpec is a role-keyed redundancy design: an ordered list of tier
// groups. It generalizes the paper's fixed (DNS, Web, App, DB) tuple to
// arbitrary tier chains and heterogeneous variants; Design.Spec converts
// the classic tuple into the canonical four-tier spec. An empty Name
// gets the canonical one where a design is served. The JSON tags are the
// wire shape of a design spec.
type DesignSpec struct {
	Name  string     `json:"name,omitempty"`
	Tiers []TierSpec `json:"tiers"`
}

// Spec converts the classic 4-int design into its role-keyed equivalent.
func (d Design) Spec() DesignSpec {
	return DesignSpec{Name: d.Name, Tiers: []TierSpec{
		{Role: RoleDNS, Replicas: d.DNS},
		{Role: RoleWeb, Replicas: d.Web},
		{Role: RoleApp, Replicas: d.App},
		{Role: RoleDB, Replicas: d.DB},
	}}
}

// KnownStack reports whether the catalog names a software stack for the
// role.
func KnownStack(role string) bool {
	for i := range catalog {
		if catalog[i].Role == role {
			return true
		}
	}
	return false
}

// keySeparators are the bytes the key grammar (AppendKey,
// AppendRolloutKey) separates its parts with. A role or variant holding
// one would let two different specs render one key.
const keySeparators = ";:/,|"

// Validate checks the spec: at least one tier, at least one replica per
// group, no key separator (; : / , |) in a role or variant, and every
// stack (role or variant) present in the catalog, since evaluation needs
// the stack's vulnerabilities and patch plan. A label may hold " + ",
// which String joins groups with: a description is display text and
// never a key, so it needs no rule against it. The engine's entries call
// Validate once per request, and the layers below them take a valid
// spec.
func (s DesignSpec) Validate() error {
	if len(s.Tiers) == 0 {
		return fmt.Errorf("paperdata: design spec %q has no tiers", s.Name)
	}
	for i, t := range s.Tiers {
		if t.Role == "" {
			return fmt.Errorf("paperdata: design spec %q: tier %d has no role", s.Name, i)
		}
		if hasKeySeparator(t.Role) || hasKeySeparator(t.Variant) {
			return fmt.Errorf("paperdata: design spec %q: tier %d label %q contains one of %q, which separate the design key",
				s.Name, i, t.appendLabel(nil), keySeparators)
		}
		if t.Replicas < 1 {
			return fmt.Errorf("paperdata: design spec %q: tier %s needs at least one replica, have %d",
				s.Name, t.appendLabel(nil), t.Replicas)
		}
		if !KnownStack(t.Stack()) {
			return fmt.Errorf("paperdata: design spec %q: tier %s uses unknown stack %q",
				s.Name, t.Role, t.Stack())
		}
	}
	return nil
}

// hasKeySeparator reports whether s holds a byte of keySeparators: what
// strings.ContainsAny answers, without its per-rune decoding.
func hasKeySeparator(s string) bool {
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(keySeparators, s[i]) >= 0 {
			return true
		}
	}
	return false
}

// Total returns the number of servers in the spec.
func (s DesignSpec) Total() int {
	n := 0
	for _, t := range s.Tiers {
		n += t.Replicas
	}
	return n
}

// Key is the canonical cache identity of the spec: tier order, roles,
// variants and replica counts — everything that changes the models — and
// deliberately not the name, so renaming a design never misses the cache.
func (s DesignSpec) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the spec's Key to b, so callers composing a longer
// key build it in one buffer.
func (s DesignSpec) AppendKey(b []byte) []byte {
	for i, t := range s.Tiers {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(append(t.appendLabel(b), ':'), int64(t.Replicas), 10)
	}
	return b
}

// rolloutSep joins a design key and a rollout point's patched counts.
const rolloutSep = "|rollout="

// AppendRolloutKey appends the key of the spec at one rollout point:
// its Key, then "|rollout=" and the per-tier patched counts separated
// by commas. Fractions that ceil to the same counts share the key.
func (s DesignSpec) AppendRolloutKey(b []byte, patched []int) []byte {
	b = append(s.AppendKey(b), rolloutSep...)
	for i, p := range patched {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return b
}

// KeyTier is one tier of a key a KeyScanner read: the number of its
// label in that scanner's Labels, and its replica count.
type KeyTier struct {
	Label    int
	Replicas int
}

// KeyScanner reads text keys in the one spelling AppendKey and
// AppendRolloutKey render, in one pass over each key: a reader of keys
// from outside, such as a dump's, needs nothing else to know a key
// names a valid design, or a rollout point that fits it, and is
// canonical. It numbers the distinct tier labels ("role" or
// "role/stack") it reads from 1, in the order it first meets them,
// and checks each label once: a label is compared with the one the
// previous key had at the same tier first, then looked up by its
// text. The zero value is ready to use; a KeyScanner is not safe for
// concurrent use.
type KeyScanner struct {
	ids    map[string]int // label text -> number
	text   []string       // text[id-1]: the label as a key spells it
	labels []TierSpec     // labels[id-1]: its role and variant
	prev   []int          // the label numbers of the last key read, by tier
}

// Labels returns the labels the scanner has numbered, label n at index
// n-1: each a role and, where the stack is another, the variant.
// Replicas is 0.
func (s *KeyScanner) Labels() []TierSpec { return s.labels }

// Scan reads key and appends its tiers to tiers and, for a rollout key,
// its per-tier patched counts to patched; rollout reports which kind of
// key it is. It accepts exactly the keys AppendKey and AppendRolloutKey
// render for valid specs: tiers of a known stack, with no key separator
// in a label and no variant equal to its role, replica counts of 1 or
// more and, for a rollout key, one count per tier within 0..replicas,
// every number in decimal with no sign and no leading zero. On error
// tiers and patched keep the lengths they were passed with.
func (s *KeyScanner) Scan(tiers []KeyTier, patched []int, key []byte) ([]KeyTier, []int, bool, error) {
	t0 := len(tiers)
	pos := 0
	for tier := 0; ; tier++ {
		id, colon, err := s.label(key, pos, tier)
		if err != nil {
			return tiers[:t0], patched, false, err
		}
		n, end, ok := decimal(key, colon+1)
		if !ok || n < 1 {
			return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: tier %d needs a replica count of 1 or more in canonical decimal", key, tier)
		}
		tiers = append(tiers, KeyTier{Label: id, Replicas: n})
		if end == len(key) {
			return tiers, patched, false, nil
		}
		if key[end] != ';' {
			if !bytes.HasPrefix(key[end:], []byte(rolloutSep)) {
				return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: tier %d ends in %q, not ';', %q or the end", key, tier, key[end], rolloutSep)
			}
			pos = end + len(rolloutSep)
			break
		}
		pos = end + 1
	}
	p0 := len(patched)
	design := tiers[t0:]
	for i, t := range design {
		n, end, ok := decimal(key, pos)
		if !ok || n > t.Replicas {
			return tiers[:t0], patched[:p0], false, fmt.Errorf("paperdata: key %q: tier %d needs a patched count within 0..%d in canonical decimal", key, i, t.Replicas)
		}
		patched = append(patched, n)
		last := i == len(design)-1
		if last && end != len(key) || !last && (end == len(key) || key[end] != ',') {
			return tiers[:t0], patched[:p0], false, fmt.Errorf("paperdata: key %q: want one patched count for each of %d tiers", key, len(design))
		}
		pos = end + 1
	}
	return tiers, patched, true, nil
}

// label reads the label of the key's tier that opens at pos and returns
// its number and the index of the ':' that ends it.
func (s *KeyScanner) label(key []byte, pos, tier int) (id, colon int, err error) {
	if tier < len(s.prev) {
		id = s.prev[tier]
		t := s.text[id-1]
		if end := pos + len(t); end < len(key) && key[end] == ':' && string(key[pos:end]) == t {
			return id, end, nil
		}
	}
	colon = bytes.IndexByte(key[pos:], ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("paperdata: key %q: tier %d has no replica count", key, tier)
	}
	colon += pos
	if id = s.ids[string(key[pos:colon])]; id == 0 {
		if id, err = s.add(key[pos:colon]); err != nil {
			return 0, 0, fmt.Errorf("paperdata: key %q: %w", key, err)
		}
	}
	if tier < len(s.prev) {
		s.prev[tier] = id
	} else {
		s.prev = append(s.prev, id)
	}
	return id, colon, nil
}

// add checks a label the scanner has not read before and numbers it. A
// label must name a valid tier, and spell a variant only where it is
// not empty and not the role, as appendLabel does.
func (s *KeyScanner) add(label []byte) (int, error) {
	text := string(label)
	role, variant, slash := strings.Cut(text, "/")
	t := TierSpec{Role: role, Replicas: 1, Variant: variant}
	if slash && t.Stack() == role {
		return 0, fmt.Errorf("label %q is not canonical (want %q)", text, role)
	}
	if err := (DesignSpec{Tiers: []TierSpec{t}}).Validate(); err != nil {
		return 0, err
	}
	if s.ids == nil {
		// A dump's keys name a handful of labels, and tiers.
		s.ids = make(map[string]int, 8)
		s.text, s.labels, s.prev = make([]string, 0, 8), make([]TierSpec, 0, 8), make([]int, 0, 8)
	}
	t.Replicas = 0
	s.text = append(s.text, text)
	s.labels = append(s.labels, t)
	s.ids[text] = len(s.text)
	return len(s.text), nil
}

// decimal reads the number at key[pos:] as strconv.AppendInt renders a
// non-negative int: "0", or a digit 1-9 and more digits, at most
// math.MaxInt. It returns the number and the end of its digits; ok is
// false when key[pos:] opens with no such number.
func decimal(key []byte, pos int) (n, end int, ok bool) {
	for end = pos; end < len(key) && '0' <= key[end] && key[end] <= '9'; end++ {
		d := int(key[end] - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, end, false
		}
		n = n*10 + d
	}
	return n, end, end > pos && (key[pos] != '0' || end == pos+1)
}

// String renders the spec in the paper's notation, e.g.
// "1 DNS + 2 WEB + 2 APP + 1 DB"; variant groups render as
// "1 WEB/WEBALT".
func (s DesignSpec) String() string {
	var buf [64]byte
	return string(s.AppendString(buf[:0]))
}

// AppendString appends String's text to b without building the string.
func (s DesignSpec) AppendString(b []byte) []byte {
	for i, t := range s.Tiers {
		if i > 0 {
			b = append(b, " + "...)
		}
		b = append(strconv.AppendInt(b, int64(t.Replicas), 10), ' ')
		b = upperFrom(t.appendLabel(b), len(b))
	}
	return b
}

// upperFrom upper-cases b[start:] as strings.ToUpper would, in place:
// catalog labels are ASCII, so rendering one builds no string. A
// non-ASCII byte hands the rest to strings.ToUpper, whose result may
// differ in length.
func upperFrom(b []byte, start int) []byte {
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c >= utf8.RuneSelf:
			return append(b[:i], strings.ToUpper(string(b[i:]))...)
		case 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		}
	}
	return b
}

// classic reports whether the spec is exactly the homogeneous
// (DNS, Web, App, DB) tuple, returning it when so.
func (s DesignSpec) classic() (Design, bool) {
	if len(s.Tiers) != 4 {
		return Design{}, false
	}
	for i, role := range Roles() {
		t := s.Tiers[i]
		if t.Role != role || t.Stack() != role {
			return Design{}, false
		}
	}
	return Design{
		Name: s.Name,
		DNS:  s.Tiers[0].Replicas,
		Web:  s.Tiers[1].Replicas,
		App:  s.Tiers[2].Replicas,
		DB:   s.Tiers[3].Replicas,
	}, true
}

// CanonicalName is the compact default name of a spec: the classic
// "1d2w2a1b" scheme for homogeneous four-tier designs (shared with the
// 4-int API), and a role-keyed "1dns-2web/webalt-..." form otherwise.
func (s DesignSpec) CanonicalName() string {
	var buf [64]byte
	return string(s.AppendCanonicalName(buf[:0]))
}

// AppendCanonicalName appends CanonicalName's text to b without
// building the string.
func (s DesignSpec) AppendCanonicalName(b []byte) []byte {
	if d, ok := s.classic(); ok {
		return appendClassicName(b, d.DNS, d.Web, d.App, d.DB)
	}
	for i, t := range s.Tiers {
		if i > 0 {
			b = append(b, '-')
		}
		b = t.appendLabel(strconv.AppendInt(b, int64(t.Replicas), 10))
	}
	return b
}

// LogicalTier is one logical service tier of a spec: every group sharing
// one role, in spec order.
type LogicalTier struct {
	Role   string
	Groups []TierSpec
}

// Logical groups the spec's tiers by role in first-appearance order. The
// chain of logical tiers defines the network layering; groups within one
// logical tier are redundant alternatives for the same service.
func (s DesignSpec) Logical() []LogicalTier {
	index := make(map[string]int)
	var out []LogicalTier
	for _, t := range s.Tiers {
		i, ok := index[t.Role]
		if !ok {
			i = len(out)
			index[t.Role] = i
			out = append(out, LogicalTier{Role: t.Role})
		}
		out[i].Groups = append(out[i].Groups, t)
	}
	return out
}

// TargetStacks returns the distinct stack roles of the last logical tier
// — the attacker's goal hosts (the database servers in the paper).
func (s DesignSpec) TargetStacks() []string {
	logical := s.Logical()
	if len(logical) == 0 {
		return nil
	}
	last := logical[len(logical)-1]
	seen := make(map[string]bool, len(last.Groups))
	var out []string
	for _, g := range last.Groups {
		if stack := g.Stack(); !seen[stack] {
			seen[stack] = true
			out = append(out, stack)
		}
	}
	return out
}

// tierSubnet places a logical tier on the Fig. 2 network: the paper's
// DMZ assignments for the known roles, the intranet for everything else.
func tierSubnet(role string) string {
	switch role {
	case RoleDNS:
		return "dmz2"
	case RoleWeb, RoleWebAlt:
		return "dmz1"
	default:
		return "intranet"
	}
}

// SpecTopology builds the network of a role-keyed design, generalizing
// the paper's Fig. 2, which a classic design's Spec builds: logical
// tiers form a chain in spec order (every server of one tier reaches
// every server of the next), the attacker reaches every DMZ tier (the
// paper's dual entry through DNS and web), and — when no tier sits in a
// DMZ — the first tier. Server names are stack-keyed ("web1",
// "webalt1"). The spec must be valid.
func SpecTopology(spec DesignSpec) *topology.Topology {
	top := topology.New()
	top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker, Subnet: "internet"})

	logical := spec.Logical()
	counter := make(map[string]int)
	hosts := make([][]string, len(logical))
	for i, lt := range logical {
		subnet := tierSubnet(lt.Role)
		for _, g := range lt.Groups {
			stack := g.Stack()
			for r := 0; r < g.Replicas; r++ {
				counter[stack]++
				name := fmt.Sprintf("%s%d", stack, counter[stack])
				top.MustAddNode(topology.Node{Name: name, Kind: topology.KindHost, Subnet: subnet, Role: stack})
				hosts[i] = append(hosts[i], name)
			}
		}
	}
	connectAll := func(from, to []string) {
		for _, f := range from {
			for _, t := range to {
				top.MustConnect(f, t)
			}
		}
	}
	entered := false
	for i, lt := range logical {
		if strings.HasPrefix(tierSubnet(lt.Role), "dmz") {
			connectAll([]string{"attacker"}, hosts[i])
			entered = true
		}
	}
	if !entered {
		connectAll([]string{"attacker"}, hosts[0])
	}
	for i := 0; i+1 < len(logical); i++ {
		connectAll(hosts[i], hosts[i+1])
	}
	return top
}
