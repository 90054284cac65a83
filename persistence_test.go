package redpatch

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"redpatch/internal/engine"
)

// TestCachePersistenceRoundTrip dumps a warmed study and restores it
// into a fresh one built from the same config: the restored study must
// serve identical reports without re-solving anything.
func TestCachePersistenceRoundTrip(t *testing.T) {
	warm, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	spec := DesignSpec{Tiers: []TierSpec{
		{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2},
		{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
	}}
	want, err := warm.EvaluateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := warm.SnapshotCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || warm.CacheEntries() != 1 {
		t.Fatalf("snapshot entries = %d, cache = %d, want 1", n, warm.CacheEntries())
	}

	cold, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cold.RestoreCache(bytes.NewReader(buf.Bytes())); err != nil || restored != 1 {
		t.Fatalf("restored = %d, err = %v", restored, err)
	}
	got, err := cold.EvaluateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored report differs:\ngot  %+v\nwant %+v", got, want)
	}
	st := cold.EngineStats()
	if st.Solves != 0 || st.Hits != 1 {
		t.Fatalf("restored study solved %d / hit %d, want 0 / 1", st.Solves, st.Hits)
	}
}

// TestCachePersistenceVariantSpecs: two specs with the same replica
// counts but different variant sets come from distinct factored security
// models; their cached results must stay distinct through a
// snapshot/restore round trip, and the restored study must serve both
// without re-solving.
func TestCachePersistenceVariantSpecs(t *testing.T) {
	warm, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	plain := DesignSpec{Tiers: []TierSpec{
		{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2},
		{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
	}}
	variant := DesignSpec{Tiers: []TierSpec{
		{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2, Variant: "webalt"},
		{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
	}}
	wantPlain, err := warm.EvaluateSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	wantVariant, err := warm.EvaluateSpec(variant)
	if err != nil {
		t.Fatal(err)
	}
	if wantPlain.Before.NoEV == wantVariant.Before.NoEV {
		t.Fatalf("plain and variant NoEV both %d; security factors leaked across variants",
			wantPlain.Before.NoEV)
	}

	var buf bytes.Buffer
	if n, err := warm.SnapshotCache(&buf); err != nil || n != 2 {
		t.Fatalf("snapshot entries = %d, err = %v, want 2", n, err)
	}
	cold, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := cold.RestoreCache(bytes.NewReader(buf.Bytes())); err != nil || restored != 2 {
		t.Fatalf("restored = %d, err = %v", restored, err)
	}
	gotPlain, err := cold.EvaluateSpec(plain)
	if err != nil {
		t.Fatal(err)
	}
	gotVariant, err := cold.EvaluateSpec(variant)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlain, wantPlain) || !reflect.DeepEqual(gotVariant, wantVariant) {
		t.Fatal("restored variant reports differ from the solve-time reports")
	}
	if st := cold.EngineStats(); st.Solves != 0 || st.Hits != 2 {
		t.Fatalf("restored study solved %d / hit %d, want 0 / 2", st.Solves, st.Hits)
	}
}

// TestCachePersistenceRejectsOtherPolicy: a dump written under one
// patch policy or schedule must not restore into a study built under
// another — same design keys, different models.
func TestCachePersistenceRejectsOtherPolicy(t *testing.T) {
	base, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.EvaluateSpec(ClassicSpec("d", 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := base.SnapshotCache(&buf); err != nil {
		t.Fatal(err)
	}

	for name, cfg := range map[string]Config{
		"patch-all policy": {PatchAll: true},
		"other threshold":  {CriticalThreshold: 5},
		"other schedule":   {PatchIntervalHours: 168},
	} {
		t.Run(name, func(t *testing.T) {
			other, err := NewCaseStudyWithConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := other.RestoreCache(bytes.NewReader(buf.Bytes()))
			if !errors.Is(err, engine.ErrSnapshotFingerprint) {
				t.Fatalf("err = %v, want engine.ErrSnapshotFingerprint", err)
			}
			if n != 0 || other.CacheEntries() != 0 {
				t.Fatalf("foreign dump merged %d entries (cache %d)", n, other.CacheEntries())
			}
		})
	}
}

// TestFingerprintContentAddressesDataset: the cache fingerprint must
// carry the vulnerability-dataset hash — the ROADMAP's content
// addressing — alongside policy and schedule, and resolve defaults so
// equivalent configs share dumps.
func TestFingerprintContentAddressesDataset(t *testing.T) {
	fp := Config{}.fingerprint()
	if !strings.Contains(fp, "db=") {
		t.Fatalf("fingerprint %q does not content-address the dataset", fp)
	}
	if len(datasetFingerprint()) != 16 {
		t.Fatalf("dataset fingerprint %q not a truncated sha256 hex", datasetFingerprint())
	}
	if got := (Config{CriticalThreshold: 8, PatchIntervalHours: 720}).fingerprint(); got != fp {
		t.Fatalf("explicit defaults fingerprint %q differs from zero config %q", got, fp)
	}
	for _, other := range []Config{
		{PatchAll: true},
		{CriticalThreshold: 5},
		{PatchIntervalHours: 168},
	} {
		if other.fingerprint() == fp {
			t.Fatalf("config %+v shares the default fingerprint", other)
		}
	}
}
