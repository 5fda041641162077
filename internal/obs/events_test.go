package obs

import (
	"sync"
	"testing"
)

func TestBusFanOutAndCancel(t *testing.T) {
	bus := NewBus(8)
	a, cancelA := bus.Subscribe()
	b, cancelB := bus.Subscribe()
	if bus.subscribers() != 2 {
		t.Fatalf("subscribers = %d, want 2", bus.subscribers())
	}
	bus.Publish("x", 1)
	bus.Publish("y", 2)
	for name, ch := range map[string]<-chan Event{"a": a, "b": b} {
		ev := <-ch
		if ev.Type != "x" || ev.Seq != 1 {
			t.Errorf("%s first event = %+v", name, ev)
		}
		ev = <-ch
		if ev.Type != "y" || ev.Seq != 2 {
			t.Errorf("%s second event = %+v", name, ev)
		}
	}
	cancelA()
	cancelA() // idempotent
	if bus.subscribers() != 1 {
		t.Errorf("subscribers after cancel = %d, want 1", bus.subscribers())
	}
	bus.Publish("z", 3)
	if ev := <-b; ev.Type != "z" {
		t.Errorf("b missed event after a cancelled: %+v", ev)
	}
	if _, open := <-a; open {
		t.Error("cancelled channel still open")
	}
	cancelB()
}

// TestBusNeverBlocks publishes far past a subscriber's buffer with nobody
// draining: Publish must return and count the drops.
func TestBusNeverBlocks(t *testing.T) {
	bus := NewBus(2)
	ch, cancel := bus.Subscribe()
	defer cancel()
	for i := 0; i < 10; i++ {
		bus.Publish("flood", i)
	}
	if got := bus.Dropped(); got != 8 {
		t.Errorf("dropped = %d, want 8", got)
	}
	if ev := <-ch; ev.Seq != 1 {
		t.Errorf("first retained event seq = %d, want 1", ev.Seq)
	}
}

func TestBusNilSafe(t *testing.T) {
	var bus *Bus
	bus.Publish("x", nil) // must not panic
	if bus.subscribers() != 0 || bus.Dropped() != 0 {
		t.Error("nil bus reports phantom state")
	}
}

// TestBusConcurrent exercises publish/subscribe/cancel races under -race.
func TestBusConcurrent(t *testing.T) {
	bus := NewBus(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				bus.Publish("t", i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := bus.Subscribe()
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if bus.subscribers() != 0 {
		t.Errorf("leaked subscribers: %d", bus.subscribers())
	}
}
