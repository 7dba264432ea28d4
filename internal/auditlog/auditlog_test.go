package auditlog

import "testing"

func TestGenesisDistinguishesRuns(t *testing.T) {
	if Genesis(1, 8) == Genesis(2, 8) {
		t.Fatal("different seeds must give different genesis heads")
	}
	if Genesis(1, 8) == Genesis(1, 9) {
		t.Fatal("different sizes must give different genesis heads")
	}
}

func TestEmptyChainHeadIsGenesis(t *testing.T) {
	g := Genesis(42, 4)
	r := NewRecorder(4, g)
	if r.ChainHead() != g {
		t.Fatalf("empty recorder head = %x, want genesis %x", r.ChainHead(), g)
	}
	if r.Len() != 0 {
		t.Fatalf("empty recorder Len = %d", r.Len())
	}
}

func TestChainDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(4, Genesis(7, 4))
		r.SetRound(3)
		r.Record(1, KindParentChange, 1, 0)
		r.Record(2, KindReset, 0, 2)
		r.SetRound(9)
		r.Record(1, KindExchange, 0, 3)
		return r
	}
	a, b := build(), build()
	if a.ChainHead() != b.ChainHead() {
		t.Fatalf("identical record sequences disagree: %x vs %x", a.ChainHead(), b.ChainHead())
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}

func TestChainOrderSensitive(t *testing.T) {
	a := NewRecorder(4, Genesis(7, 4))
	a.Record(1, KindParentChange, 1, 0)
	a.Record(1, KindExchange, 0, 3)
	b := NewRecorder(4, Genesis(7, 4))
	b.Record(1, KindExchange, 0, 3)
	b.Record(1, KindParentChange, 1, 0)
	if a.ChainHead() == b.ChainHead() {
		t.Fatal("reordered per-node records must change the chain head")
	}
}

func TestRoundExcludedFromHash(t *testing.T) {
	a := NewRecorder(2, Genesis(1, 2))
	a.SetRound(5)
	a.Record(0, KindReset, 1, 0)
	b := NewRecorder(2, Genesis(1, 2))
	// No SetRound: wall-clock backends stamp round 0.
	b.Record(0, KindReset, 1, 0)
	if a.ChainHead() != b.ChainHead() {
		t.Fatal("Round must not contribute to the chain hash (wall-clock comparability)")
	}
	if got := a.logs[0][0].Round; got != 5 {
		t.Fatalf("record round = %d, want 5", got)
	}
}

func TestHookBindsNode(t *testing.T) {
	r := NewRecorder(3, Genesis(1, 3))
	hook := r.Hook(2)
	hook(KindExchange, 0, 1)
	if len(r.logs[2]) != 1 || len(r.logs[0]) != 0 || len(r.logs[1]) != 0 {
		t.Fatal("Hook must append to the bound node's log only")
	}
	if rec := r.logs[2][0]; rec.Node != 2 {
		t.Fatalf("hooked record = %+v", rec)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindParentChange: "parent", KindReset: "reset", KindExchange: "exchange", Kind(9): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
