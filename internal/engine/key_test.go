package engine

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"redpatch/internal/paperdata"
)

// refParse is the key check restores made before paperdata.KeyScanner,
// kept as its reference: it cuts the key at its separators, reads each
// number with strconv.Atoi and validates the spec the parts describe.
// It returns the unnamed spec and, for a rollout key, the patched
// counts (nil for a design key). It accepts spellings the renderers
// never produce ("dns:01", "web/web:1"); refCanonical rejects them.
func refParse(key string) (paperdata.DesignSpec, []int, error) {
	design, counts, rollout := strings.Cut(key, "|rollout=")
	var spec paperdata.DesignSpec
	for _, part := range strings.Split(design, ";") {
		label, n, ok := strings.Cut(part, ":")
		if !ok {
			return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: tier %q has no replica count", key, part)
		}
		replicas, err := strconv.Atoi(n)
		if err != nil {
			return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: tier %q: %v", key, part, err)
		}
		role, variant, _ := strings.Cut(label, "/")
		spec.Tiers = append(spec.Tiers, paperdata.TierSpec{Role: role, Replicas: replicas, Variant: variant})
	}
	if err := spec.Validate(); err != nil {
		return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: %w", key, err)
	}
	if !rollout {
		return spec, nil, nil
	}
	cs := strings.Split(counts, ",")
	if len(cs) != len(spec.Tiers) {
		return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: %d patched counts for %d tiers", key, len(cs), len(spec.Tiers))
	}
	patched := make([]int, len(cs))
	for i, c := range cs {
		n, err := strconv.Atoi(c)
		if err != nil {
			return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: patched count %q: %v", key, c, err)
		}
		if n < 0 || n > spec.Tiers[i].Replicas {
			return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q: tier %d patches %d of %d replicas", key, i, n, spec.Tiers[i].Replicas)
		}
		patched[i] = n
	}
	return spec, patched, nil
}

// refCanonical is refParse for a key that must also be in the form the
// engine renders: the spec and counts must re-render to the same bytes.
func refCanonical(key string) (paperdata.DesignSpec, []int, error) {
	spec, patched, err := refParse(key)
	if err != nil {
		return paperdata.DesignSpec{}, nil, err
	}
	re := spec.Key()
	if patched != nil {
		re = string(spec.AppendRolloutKey(nil, patched))
	}
	if re != key {
		return paperdata.DesignSpec{}, nil, fmt.Errorf("key %q is not canonical (want %q)", key, re)
	}
	return spec, patched, nil
}

// FuzzScanKey pins the restore's one-pass key check to the chain it
// replaced: refCanonical, then the memo's packing of the spec. Each
// input is a run of keys, one a line, read by one KeyScanner, so a key
// is also scanned after the keys before it, as a dump's keys are. For
// each key both accept, with equal packed keys, or both reject; a
// rejection leaves the scanner's arenas as they were. The scanner's
// label numbers are mapped to the reference memo's as a restore's merge
// maps them. Seeds: every key of the version-3 seed dump, one by one
// and as one run, and the keys TestParseKeyRejects rejects.
func FuzzScanKey(f *testing.F) {
	seed, err := os.ReadFile("testdata/snapshot-v3.json")
	if err != nil {
		f.Fatal(err)
	}
	var keys []string
	for _, e := range seedEntries(string(seed)) {
		key, _, _ := strings.Cut(strings.TrimPrefix(e, `{"key":"`), `"`)
		keys = append(keys, key)
		f.Add([]byte(key))
	}
	f.Add([]byte(strings.Join(keys, "\n")))
	for _, key := range []string{
		"", "dns", "dns:", "dns:x", "dns:0", "dns:-1", "mainframe:1", "web/iis:1", ":1",
		"dns:1;", "dns:1;;web:1", "dns:1|rollout=", "dns:1|rollout=2", "dns:1|rollout=-1",
		"dns:1;web:2|rollout=1", "dns:1;web:2|rollout=1,1,0", "dns:1|rollout=1|rollout=1",
		"dns:01", "dns:+1", "web/web:1", "dns:1|rollout=01",
	} {
		f.Add([]byte(key))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ref := newMemo()
		var ks keyScan
		for _, key := range bytes.Split(in, []byte("\n")) {
			var want []byte
			spec, patched, werr := refCanonical(string(key))
			if werr == nil {
				want, _ = ref.appendKey(nil, spec, patched, true)
			}
			tiers, counts, rollout, err := ks.Scan(ks.tiers[:0], ks.patched[:0], key)
			if (err == nil) != (werr == nil) {
				t.Fatalf("key %q: scanner says %v, reference %v", key, err, werr)
			}
			if err != nil {
				if len(tiers) != 0 || len(counts) != 0 {
					t.Fatalf("key %q: rejected with %d tiers and %d counts appended", key, len(tiers), len(counts))
				}
				continue
			}
			ks.tiers, ks.patched = tiers, counts
			if rollout != (patched != nil) {
				t.Fatalf("key %q: scanner says rollout %v, reference %v", key, rollout, patched != nil)
			}
			ids, _ := ref.labelIDs(ks.Labels())
			if got := translate(nil, appendScanned(nil, tiers, counts, rollout), ids); !bytes.Equal(got, want) {
				t.Fatalf("key %q packs to %v, reference %v", key, got, want)
			}
		}
	})
}
