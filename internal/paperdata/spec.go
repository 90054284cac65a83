package paperdata

import (
	"bytes"
	"fmt"
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

// KeyParser parses text keys, the inverse of AppendKey and
// AppendRolloutKey. It interns the tier labels it reads, so a run of
// keys shares one string per distinct role and variant and a parsed key
// allocates nothing. The zero value is ready to use; a KeyParser is not
// safe for concurrent use.
type KeyParser struct{ labels map[string]string }

// AppendParse parses key and appends the tiers of the unnamed spec it
// describes to tiers and, for a rollout key, the per-tier patched counts
// to patched; rollout reports which kind of key it is. The spec must be
// valid and a rollout key must carry one count per tier, each within
// 0..replicas; on error tiers and patched keep the lengths they were
// passed with. AppendParse accepts spellings the renderers never
// produce ("dns:01", "web/web:1"); callers that need the canonical form
// re-render the result and compare.
func (p *KeyParser) AppendParse(tiers []TierSpec, patched []int, key []byte) ([]TierSpec, []int, bool, error) {
	t0 := len(tiers)
	design, counts, rollout := bytes.Cut(key, []byte(rolloutSep))
	for rest, more := design, true; more; {
		var part []byte
		part, rest, more = bytes.Cut(rest, []byte(";"))
		label, n, ok := bytes.Cut(part, []byte(":"))
		if !ok {
			return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: tier %q has no replica count", key, part)
		}
		replicas, err := strconv.Atoi(string(n))
		if err != nil {
			return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: tier %q: %v", key, part, err)
		}
		role, variant, _ := bytes.Cut(label, []byte("/"))
		tiers = append(tiers, TierSpec{Role: p.intern(role), Replicas: replicas, Variant: p.intern(variant)})
	}
	spec := DesignSpec{Tiers: tiers[t0:]}
	if err := spec.Validate(); err != nil {
		return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: %w", key, err)
	}
	if !rollout {
		return tiers, patched, false, nil
	}
	if n := bytes.Count(counts, []byte(",")) + 1; n != len(spec.Tiers) {
		return tiers[:t0], patched, false, fmt.Errorf("paperdata: key %q: %d patched counts for %d tiers",
			key, n, len(spec.Tiers))
	}
	p0 := len(patched)
	for i, rest := 0, counts; i < len(spec.Tiers); i++ {
		var c []byte
		c, rest, _ = bytes.Cut(rest, []byte(","))
		n, err := strconv.Atoi(string(c))
		if err != nil {
			return tiers[:t0], patched[:p0], false, fmt.Errorf("paperdata: key %q: patched count %q: %v", key, c, err)
		}
		if n < 0 || n > spec.Tiers[i].Replicas {
			return tiers[:t0], patched[:p0], false, fmt.Errorf("paperdata: key %q: tier %d patches %d of %d replicas",
				key, i, n, spec.Tiers[i].Replicas)
		}
		patched = append(patched, n)
	}
	return tiers, patched, true, nil
}

// intern returns label as a string, the same string for every equal
// label this parser has read.
func (p *KeyParser) intern(label []byte) string {
	if len(label) == 0 {
		return ""
	}
	if s, ok := p.labels[string(label)]; ok {
		return s
	}
	if p.labels == nil {
		p.labels = make(map[string]string)
	}
	s := string(label)
	p.labels[s] = s
	return s
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
