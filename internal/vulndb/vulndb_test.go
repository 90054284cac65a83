package vulndb

import (
	"encoding/json"
	"testing"

	"redpatch/internal/cvss"
)

func sample() Vulnerability {
	return Vulnerability{
		ID:          "CVE-2016-6662",
		Product:     "MySQL",
		Component:   ComponentService,
		Vector:      cvss.MustParse("AV:N/AC:L/Au:N/C:C/I:C/A:C"),
		Exploitable: true,
		Description: "MySQL logging remote root code execution",
	}
}

func TestAddAndLookup(t *testing.T) {
	db := New()
	if err := db.Add(sample()); err != nil {
		t.Fatal(err)
	}
	if len(db.byID) != 1 {
		t.Fatalf("records = %d, want 1", len(db.byID))
	}
	v, ok := db.ByID("CVE-2016-6662")
	if !ok {
		t.Fatal("ByID should find the record")
	}
	if v.Product != "MySQL" {
		t.Errorf("Product = %q", v.Product)
	}
	if _, ok := db.ByID("CVE-0000-0000"); ok {
		t.Error("ByID should not find a missing record")
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	db := New()
	if err := db.Add(sample()); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(sample()); err == nil {
		t.Error("duplicate Add should fail")
	}
}

func TestAddValidates(t *testing.T) {
	db := New()
	tests := []struct {
		name string
		mut  func(*Vulnerability)
	}{
		{name: "emptyID", mut: func(v *Vulnerability) { v.ID = "" }},
		{name: "badComponent", mut: func(v *Vulnerability) { v.Component = 0 }},
		{name: "zeroVector", mut: func(v *Vulnerability) { v.Vector = cvss.Vector{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := sample()
			tt.mut(&v)
			if err := db.Add(v); err == nil {
				t.Error("Add should fail validation")
			}
		})
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAdd of invalid record should panic")
		}
	}()
	v := sample()
	v.ID = ""
	New().MustAdd(v)
}

func TestDerivedScores(t *testing.T) {
	v := sample()
	if got := v.BaseScore(); got != 10.0 {
		t.Errorf("BaseScore = %v, want 10.0", got)
	}
	if got := v.Impact(); got != 10.0 {
		t.Errorf("Impact = %v, want 10.0", got)
	}
	if got := v.ASP(); got != 1.0 {
		t.Errorf("ASP = %v, want 1.0", got)
	}
	if !v.IsCritical(8.0) {
		t.Error("base 10.0 should be critical at threshold 8.0")
	}
	if v.IsCritical(10.0) {
		t.Error("criticality must be strict inequality")
	}
}

func buildTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	records := []Vulnerability{
		sample(),
		{
			ID:        "CVE-2016-4997",
			Product:   "Oracle Linux 7",
			Component: ComponentOS,
			Vector:    cvss.MustParse("AV:L/AC:L/Au:N/C:C/I:C/A:C"), // base 7.2
			// Local privilege escalation: not remotely exploitable on its
			// own, but the paper's attack trees pair it with a remote flaw.
			Exploitable: true,
		},
		{
			ID:          "CVE-2015-3152",
			Product:     "MySQL",
			Component:   ComponentService,
			Vector:      cvss.MustParse("AV:N/AC:M/Au:N/C:P/I:N/A:N"), // base 4.3
			Exploitable: true,
		},
		{
			ID:          "CVE-2016-9999",
			Product:     "Windows Server 2012 R2",
			Component:   ComponentOS,
			Vector:      cvss.MustParse("AV:N/AC:M/Au:N/C:C/I:C/A:C"), // base 9.3
			Exploitable: false,
		},
	}
	for _, r := range records {
		if err := db.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQueries(t *testing.T) {
	db := buildTestDB(t)

	if got := db.ByProduct("MySQL"); len(got) != 2 {
		t.Errorf("ByProduct(MySQL) returned %d records, want 2", len(got))
	}
	all := db.All()
	if len(all) != 4 {
		t.Fatalf("All returned %d records, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Error("All must be sorted by ID")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := buildTestDB(t)
	data, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	var back DB
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.byID) != len(db.byID) {
		t.Fatalf("round trip lost records: %d != %d", len(back.byID), len(db.byID))
	}
	for _, v := range db.All() {
		got, ok := back.ByID(v.ID)
		if !ok {
			t.Fatalf("record %s lost in round trip", v.ID)
		}
		if got != v {
			t.Errorf("record %s changed in round trip: %+v != %+v", v.ID, got, v)
		}
	}
}

func TestUnmarshalRejectsBadVector(t *testing.T) {
	var db DB
	err := json.Unmarshal([]byte(`[{"id":"CVE-1","product":"x","Component":"os","vector":"nope","exploitable":false}]`), &db)
	if err == nil {
		t.Error("unmarshal with bad vector should fail")
	}
}

func TestComponentJSON(t *testing.T) {
	data, err := json.Marshal(ComponentOS)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"os"` {
		t.Errorf("marshal ComponentOS = %s", data)
	}
	var c Component
	if err := json.Unmarshal([]byte(`"service"`), &c); err != nil {
		t.Fatal(err)
	}
	if c != ComponentService {
		t.Errorf("unmarshal service = %v", c)
	}
	if err := json.Unmarshal([]byte(`"kernel"`), &c); err == nil {
		t.Error("unknown component should fail")
	}
}

func TestComponentString(t *testing.T) {
	if ComponentOS.String() != "os" || ComponentService.String() != "service" {
		t.Error("component labels wrong")
	}
}
