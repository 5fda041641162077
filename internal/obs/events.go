package obs

import (
	"sync"
	"sync/atomic"
)

// Event is one observability-plane notification: a verified placement
// decision, a drift or SLO alert, an injected fault.
// Data must be JSON-marshalable; the SSE handler encodes it verbatim.
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	Data any    `json:"data"`
}

// DefaultBusBuffer is the per-subscriber channel capacity used when
// NewBus is given a non-positive buffer.
const DefaultBusBuffer = 256

// Bus is a lossy fan-out of Events to any number of subscribers. Publish
// never blocks: a subscriber whose buffer is full misses the event (its
// drop count increments), so a stalled SSE client can never stall the
// simulation driving the bus. A nil *Bus is valid and publishes nothing.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	nextID  int
	subs    map[int]chan Event
	buffer  int
	dropped atomic.Uint64
}

// NewBus returns a bus whose subscribers buffer up to buffer events.
func NewBus(buffer int) *Bus {
	if buffer <= 0 {
		buffer = DefaultBusBuffer
	}
	return &Bus{subs: map[int]chan Event{}, buffer: buffer}
}

// Publish delivers the event to every current subscriber, dropping it for
// subscribers that are full.
func (b *Bus) Publish(typ string, data any) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev := Event{Seq: b.seq, Type: typ, Data: data}
	for _, ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a new subscriber and returns its event channel plus
// a cancel function. Cancel is idempotent; after it returns the channel is
// closed and receives nothing further.
func (b *Bus) Subscribe() (<-chan Event, func()) {
	b.mu.Lock()
	id := b.nextID
	b.nextID++
	ch := make(chan Event, b.buffer)
	b.subs[id] = ch
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, id)
			b.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// subscribers returns the number of live subscribers.
func (b *Bus) subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Dropped returns how many events were lost to full subscriber buffers.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}
