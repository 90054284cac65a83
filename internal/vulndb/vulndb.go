// Package vulndb provides an in-memory vulnerability store modelled on the
// National Vulnerability Database records the paper collects its inputs
// from. Each record carries a CVE identifier, the affected product, whether
// the flaw lives in the operating system or the service layer (which
// determines its patch duration in the availability model), its CVSS v2
// base vector, and a curated exploitability flag (whether a remote attacker
// gains privileges by exploiting it, the property that admits it into the
// attack-tree lower layer of the HARM).
package vulndb

import (
	"encoding/json"
	"fmt"
	"sort"

	"redpatch/internal/cvss"
)

// Component says which layer of a server a vulnerability lives in. The
// paper patches application vulnerabilities first and OS vulnerabilities
// immediately after, with different per-vulnerability durations.
type Component int

// Component values.
const (
	// ComponentOS marks operating-system vulnerabilities.
	ComponentOS Component = iota + 1
	// ComponentService marks application/service vulnerabilities.
	ComponentService
)

// String returns the component label.
func (c Component) String() string {
	switch c {
	case ComponentOS:
		return "os"
	case ComponentService:
		return "service"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// MarshalJSON encodes the component as its label.
func (c Component) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON decodes a component label.
func (c *Component) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "os":
		*c = ComponentOS
	case "service":
		*c = ComponentService
	default:
		return fmt.Errorf("vulndb: unknown component %q", s)
	}
	return nil
}

// Vulnerability is one vulnerability record.
type Vulnerability struct {
	// ID is the CVE identifier, e.g. "CVE-2016-6662".
	ID string
	// Product is the affected software, e.g. "MySQL" or "Oracle Linux 7".
	Product string
	// Component says whether the flaw is in the OS or the service layer.
	Component Component
	// Vector is the CVSS v2 base vector.
	Vector cvss.Vector
	// Exploitable records whether a remote attacker can exploit the flaw to
	// gain some level of privilege (the paper's admission criterion for the
	// HARM). It is curated rather than derived: CVSS alone cannot tell
	// privilege escalation from, say, an information leak.
	Exploitable bool
	// Description is free-text context.
	Description string
}

// BaseScore returns the CVSS v2 base score.
func (v Vulnerability) BaseScore() float64 { return v.Vector.BaseScore() }

// Impact returns the attack impact used by the security model: the CVSS
// impact sub-score rounded to one decimal (paper Table I).
func (v Vulnerability) Impact() float64 { return v.Vector.ImpactScoreRounded() }

// ASP returns the attack success probability used by the security model:
// exploitability sub-score divided by ten, rounded to two decimals (paper
// Table I).
func (v Vulnerability) ASP() float64 { return v.Vector.AttackSuccessProbability() }

// IsCritical reports whether the base score strictly exceeds the given
// threshold; the paper defines critical as base score higher than 8.0.
func (v Vulnerability) IsCritical(threshold float64) bool { return v.BaseScore() > threshold }

// Validate checks that the record is well-formed.
func (v Vulnerability) Validate() error {
	if v.ID == "" {
		return fmt.Errorf("vulndb: vulnerability with empty ID")
	}
	if v.Component != ComponentOS && v.Component != ComponentService {
		return fmt.Errorf("vulndb: %s: invalid component %d", v.ID, v.Component)
	}
	if err := v.Vector.Validate(); err != nil {
		return fmt.Errorf("vulndb: %s: %w", v.ID, err)
	}
	return nil
}

// DB is a collection of vulnerability records keyed by CVE ID.
type DB struct {
	byID map[string]Vulnerability
}

// New returns an empty database.
func New() *DB {
	return &DB{byID: make(map[string]Vulnerability)}
}

// Add inserts a record, rejecting duplicates and malformed records.
func (db *DB) Add(v Vulnerability) error {
	if err := v.Validate(); err != nil {
		return err
	}
	if _, dup := db.byID[v.ID]; dup {
		return fmt.Errorf("vulndb: duplicate vulnerability %s", v.ID)
	}
	db.byID[v.ID] = v
	return nil
}

// MustAdd is Add for curated datasets; it panics on error.
func (db *DB) MustAdd(v Vulnerability) {
	if err := db.Add(v); err != nil {
		panic(err)
	}
}

// ByID returns the record for the given CVE ID.
func (db *DB) ByID(id string) (Vulnerability, bool) {
	v, ok := db.byID[id]
	return v, ok
}

// All returns every record sorted by CVE ID.
func (db *DB) All() []Vulnerability {
	out := make([]Vulnerability, 0, len(db.byID))
	for _, v := range db.byID {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByProduct returns the records affecting the given product, sorted by ID.
func (db *DB) ByProduct(product string) []Vulnerability {
	var out []Vulnerability
	for _, v := range db.byID {
		if v.Product == product {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// jsonRecord is the serialized form of a vulnerability.
type jsonRecord struct {
	ID          string `json:"id"`
	Product     string `json:"product"`
	Component   Component
	Vector      string `json:"vector"`
	Exploitable bool   `json:"exploitable"`
	Description string `json:"description,omitempty"`
}

// MarshalJSON encodes the database as a sorted array of records with the
// CVSS vector in its canonical string form.
func (db *DB) MarshalJSON() ([]byte, error) {
	all := db.All()
	recs := make([]jsonRecord, len(all))
	for i, v := range all {
		recs[i] = jsonRecord{
			ID:          v.ID,
			Product:     v.Product,
			Component:   v.Component,
			Vector:      v.Vector.String(),
			Exploitable: v.Exploitable,
			Description: v.Description,
		}
	}
	return json.Marshal(recs)
}

// UnmarshalJSON decodes an array of records, validating each.
func (db *DB) UnmarshalJSON(data []byte) error {
	var recs []jsonRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return err
	}
	db.byID = make(map[string]Vulnerability, len(recs))
	for _, r := range recs {
		vec, err := cvss.Parse(r.Vector)
		if err != nil {
			return fmt.Errorf("vulndb: %s: %w", r.ID, err)
		}
		v := Vulnerability{
			ID:          r.ID,
			Product:     r.Product,
			Component:   r.Component,
			Vector:      vec,
			Exploitable: r.Exploitable,
			Description: r.Description,
		}
		if err := db.Add(v); err != nil {
			return err
		}
	}
	return nil
}
