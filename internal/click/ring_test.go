package click

import (
	"runtime"
	"sync"
	"testing"
)

// TestSPSCRingOrderUnderChurn drives one producer against one consumer
// across many wraparounds of a tiny ring and checks strict FIFO order.
func TestSPSCRingOrderUnderChurn(t *testing.T) {
	const items = 10000
	r := NewSPSCRing[int](8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			for !r.Enqueue(i) {
				runtime.Gosched()
			}
		}
	}()
	next := 0
	for next < items {
		v, ok := r.Dequeue()
		if !ok {
			runtime.Gosched()
			continue
		}
		if v != next {
			t.Fatalf("dequeued %d, want %d", v, next)
		}
		next++
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain: len=%d", r.Len())
	}
}

// TestSPSCRingBatchOps exercises the batch enqueue/dequeue paths,
// including partial takes on a full ring and wraparound.
func TestSPSCRingBatchOps(t *testing.T) {
	r := NewSPSCRing[int](8)
	if r.Cap() != 8 {
		t.Fatalf("Cap() = %d, want 8", r.Cap())
	}
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if n := r.EnqueueBatch(in); n != 8 {
		t.Fatalf("EnqueueBatch on empty cap-8 ring took %d, want 8", n)
	}
	if n := r.EnqueueBatch(in); n != 0 {
		t.Fatalf("EnqueueBatch on full ring took %d, want 0", n)
	}
	out := r.DequeueBatch(nil, 5)
	if len(out) != 5 {
		t.Fatalf("DequeueBatch got %d, want 5", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i)
		}
	}
	// Wrap: 3 left, room for 5 more.
	if n := r.EnqueueBatch([]int{10, 11, 12, 13, 14, 15}); n != 5 {
		t.Fatalf("wraparound EnqueueBatch took %d, want 5", n)
	}
	want := []int{5, 6, 7, 10, 11, 12, 13, 14}
	out = r.DequeueBatch(out[:0], 100)
	if len(out) != len(want) {
		t.Fatalf("drain got %d items, want %d", len(out), len(want))
	}
	for i, v := range out {
		if v != want[i] {
			t.Fatalf("drain[%d] = %d, want %d", i, v, want[i])
		}
	}
	if _, ok := r.Dequeue(); ok {
		t.Fatal("Dequeue on empty ring reported ok")
	}
}

// TestSPSCRingCapRounding checks the power-of-two rounding and floor.
func TestSPSCRingCapRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 8}, {1, 8}, {8, 8}, {9, 16}, {1000, 1024}} {
		if got := NewSPSCRing[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("NewSPSCRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}
