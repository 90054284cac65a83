package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestPlansAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7, 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7, 0.05, 3)
		c, _ := newPlan(w, 8, 0.05, 3)
		differs := false
		for r := range a.rounds {
			if len(a.rounds[r]) != len(b.rounds[r]) {
				t.Fatalf("%s round %d: %d vs %d requests under one seed", w, r, len(a.rounds[r]), len(b.rounds[r]))
			}
			for i := range a.rounds[r] {
				if !bytes.Equal(a.rounds[r][i].body, b.rounds[r][i].body) {
					t.Fatalf("%s round %d request %d differs under one seed", w, r, i)
				}
				if i < len(c.rounds[r]) && !bytes.Equal(a.rounds[r][i].body, c.rounds[r][i].body) {
					differs = true
				}
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated identical requests", w)
		}
		fa, fb := a.foreground(1), b.foreground(1)
		for i := 0; i < 10; i++ {
			if !bytes.Equal(fa().body, fb().body) {
				t.Fatalf("%s: foreground stream differs under one seed", w)
			}
		}
	}
}

// TestColdDrawsStayCold: evaluate_cold and mixed draw distinct designs,
// each inside the cold pool (replicas 1..16, web or webalt) and never
// one the workload daemons restore, so every request misses the memo.
func TestColdDrawsStayCold(t *testing.T) {
	for _, w := range []string{wEvaluateCold, wMixed} {
		p, err := newPlan(w, 3, 1, defaultRounds)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[design]bool{}
		all := append([]request(nil), p.warmup...)
		for _, r := range p.rounds {
			all = append(all, r...)
		}
		for _, req := range all {
			d := req.design
			if d.restored() {
				t.Fatalf("%s drew restored design %+v", w, d)
			}
			for _, n := range []int{d.dns, d.web, d.app, d.db} {
				if n < 1 || n > coldMax {
					t.Fatalf("%s drew %+v outside the pool", w, d)
				}
			}
			if seen[d] {
				t.Fatalf("%s drew %+v twice", w, d)
			}
			seen[d] = true
		}
		if w == wEvaluateCold && len(all) != coldWarmup+defaultRounds*perRound[wEvaluateCold] {
			t.Errorf("evaluate_cold drew %d designs", len(all))
		}
	}
	if got := len(coldPool(rng(1, "x"))); got != coldPoolSpace-warmSetSize {
		t.Errorf("cold pool holds %d designs, want %d", got, coldPoolSpace-warmSetSize)
	}
}

func TestWarmDrawsAreRestored(t *testing.T) {
	p, _ := newPlan(wEvaluateWarm, 5, 0.1, 2)
	fg, _ := newPlan(wMixed, 5, 0.01, 1)
	next := fg.foreground(0)
	reqs := p.rounds[0]
	for i := 0; i < 100; i++ {
		reqs = append(reqs, next())
	}
	for _, req := range reqs {
		if !req.design.restored() {
			t.Fatalf("warm request for %+v, outside the restored set", req.design)
		}
		var b evaluateBody
		if err := decodeStrict(req.body, &b); err != nil {
			t.Fatal(err)
		}
		if b.Spec.Key() != req.design.spec().Key() {
			t.Fatalf("body %s does not carry design %+v", req.body, req.design)
		}
	}
}

func TestSweepColdCycles(t *testing.T) {
	p, _ := newPlan(wSweepCold, 9, 0.1, 2)
	names := map[string]bool{}
	for _, r := range p.rounds {
		if len(r)%3 != 0 {
			t.Fatalf("round of %d requests is not whole cycles", len(r))
		}
		for i := 0; i < len(r); i += 3 {
			create, sweep, del := r[i], r[i+1], r[i+2]
			if create.kind != kindScenarioCreate || sweep.kind != kindSweep || del.kind != kindScenarioDelete {
				t.Fatal("a cycle is not register, stream, delete")
			}
			if names[create.scenario] || sweep.scenario != create.scenario || del.scenario != create.scenario {
				t.Fatalf("scenario %q reused or mismatched", create.scenario)
			}
			names[create.scenario] = true
			var b sweepBody
			if err := json.Unmarshal(sweep.body, &b); err != nil {
				t.Fatal(err)
			}
			if n := b.SweepSize(); n != coldSweepDesigns {
				t.Fatalf("sweep enumerates %d designs, want %d", n, coldSweepDesigns)
			}
		}
	}
	if n := clusterSweep().SweepSize(); n != clusterSweepDesigns {
		t.Errorf("cluster sweep enumerates %d designs, want %d", n, clusterSweepDesigns)
	}
	if n := prepSweep().SweepSize(); n != warmSetSize {
		t.Errorf("prep sweep enumerates %d designs, want %d", n, warmSetSize)
	}
}

func TestCheckStream(t *testing.T) {
	ok := "{\"a\":1}\n{\"progress\":true,\"done\":1,\"total\":2}\n{\"a\":2}\n{\"done\":true,\"total\":2}\n"
	if err := checkStream([]byte(ok), 2, nil); err != nil {
		t.Errorf("well-formed stream: %v", err)
	}
	for name, body := range map[string]string{
		"error trailer":   "{\"a\":1}\n{\"error\":\"boom\",\"reason\":\"internal\"}\n",
		"no trailer":      "{\"a\":1}\n{\"a\":2}\n",
		"torn line":       "{\"a\":1\n{\"done\":true,\"total\":1}\n",
		"count mismatch":  "{\"a\":1}\n{\"done\":true,\"total\":2}\n",
		"two trailers":    "{\"done\":true,\"total\":0}\n{\"done\":true,\"total\":1}\n",
		"unterminated":    "{\"done\":true,\"total\":0}",
		"wrong line want": "{\"a\":1}\n{\"done\":true,\"total\":1}\n",
	} {
		if err := checkStream([]byte(body), 2, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
