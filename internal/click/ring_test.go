package click

import (
	"runtime"
	"sync"
	"testing"
	"time"
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

// TestSPSCRingArmWake pins both halves of the blocking protocol one step
// at a time: a publish that came first makes ArmWake refuse, a publish that
// comes after signals exactly once.
func TestSPSCRingArmWake(t *testing.T) {
	r := NewSPSCRing[int](8)
	wake := make(chan struct{}, 1)

	r.Enqueue(1)
	if r.ArmWake(wake) {
		t.Fatal("ArmWake armed a non-empty ring: the consumer would block on a frame that is already there")
	}
	r.Enqueue(2)
	if len(wake) != 0 {
		t.Fatal("a refused ArmWake left the ring armed")
	}
	r.DequeueBatch(nil, 8)

	if !r.ArmWake(wake) {
		t.Fatal("ArmWake refused an empty ring")
	}
	r.EnqueueBatch([]int{3, 4})
	if len(wake) != 1 {
		t.Fatal("publish on an armed ring did not signal")
	}
	<-wake
	r.Enqueue(5)
	if len(wake) != 0 {
		t.Fatal("second publish signalled again without a new ArmWake")
	}
}

// TestSPSCRingBlockingConsumer hands items over one at a time to a consumer
// that blocks whenever it finds the ring empty: the producer publishes the
// next item the moment it sees the previous one taken, which is the moment
// the consumer is between finding the ring empty and arming it. Nothing
// follows a publish until it is consumed, so a single lost wake-up leaves
// both sides waiting and the test times out.
func TestSPSCRingBlockingConsumer(t *testing.T) {
	const items = 100000
	r := NewSPSCRing[int](8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < items; i++ {
			r.Enqueue(i)
			for r.Len() != 0 {
				runtime.Gosched()
			}
		}
	}()
	wake := make(chan struct{}, 1)
	timeout := time.After(30 * time.Second)
	for next := 0; next < items; {
		v, ok := r.Dequeue()
		if !ok {
			if r.ArmWake(wake) {
				select {
				case <-wake:
				case <-timeout:
					t.Fatalf("consumer asleep on item %d with %d in the ring: a wake-up was lost", next, r.Len())
				}
			}
			continue
		}
		if v != next {
			t.Fatalf("dequeued %d, want %d", v, next)
		}
		next++
	}
	<-done
}
