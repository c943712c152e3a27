package core

import (
	"slices"
	"testing"

	"github.com/virtualpartitions/vp/internal/model"
)

// Planning an access reads the targets the view decided; it allocates
// nothing, whatever the operation count.
func TestPlansAllocateNothing(t *testing.T) {
	f := newFixture(t, model.FullyReplicated(3, "x"), 3, 1)
	f.run(tDeltaBound * 3)
	f.requireCommonView(1, 2, 3)
	s, rt := f.nodes[2].Strategy(), f.cluster.RuntimeFor(2)

	read, err := s.ReadPlan(rt, "x")
	if err != nil || !slices.Equal(read.Targets, []model.ProcID{2}) {
		t.Fatalf("read plan %+v, %v; want the local copy", read, err)
	}
	write, err := s.WritePlan(rt, "x")
	if err != nil || !slices.Equal(write.Targets, []model.ProcID{1, 2, 3}) || !write.LockAtPrepare {
		t.Fatalf("write plan %+v, %v; want every copy, locked at prepare", write, err)
	}
	if a := testing.AllocsPerRun(1000, func() { s.ReadPlan(rt, "x") }); a != 0 {
		t.Errorf("ReadPlan: %.1f allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { s.WritePlan(rt, "x") }); a != 0 {
		t.Errorf("WritePlan: %.1f allocs/op, want 0", a)
	}

	// A coordinator that escalates a read appends to its plan's targets;
	// that must copy, not write into the view's targets.
	_ = append(read.Targets, 3)
	if again, _ := s.ReadPlan(rt, "x"); !slices.Equal(again.Targets, []model.ProcID{2}) ||
		!slices.Equal(f.nodes[2].targets[0], []model.ProcID{1, 2, 3}) {
		t.Fatalf("an append to a read plan reached the view's targets: %v", f.nodes[2].targets)
	}
	// A plan pinned to a view keeps its targets when the view changes.
	f.nodes[2].setView(model.NewProcSet(2, 3))
	if !slices.Equal(write.Targets, []model.ProcID{1, 2, 3}) {
		t.Fatalf("the old view's write plan changed to %v", write.Targets)
	}
}
