// Package cluster implements a live, in-process distributed SDN controller
// testbed modeled on the OpenContrail 3.x architecture: real (goroutine)
// processes for every Table I process, an in-memory message bus, a
// replicated quorum store, a BGP-style control mesh, per-host vRouter
// agents holding connections to two control nodes, and per-node-role
// supervisors that auto-restart failed processes.
//
// The testbed exists to exercise the paper's section III failure modes on
// running code — kill a control process and watch agents rediscover; kill
// all three and watch every host data plane fail; kill a supervisor and
// watch its node-role run unsupervised — and to measure observed
// control-plane and data-plane availability under fault injection
// (package chaos).
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"sdnavail/internal/vclock"
)

// Message is a routed payload on the Bus.
type Message struct {
	Topic   string
	From    string
	Payload any
}

// Bus is an in-memory topic-based publish/subscribe message bus — the
// testbed's stand-in for RabbitMQ. Publishing never blocks: each
// subscription has a bounded queue and drops the oldest message on
// overflow (slow consumers lose telemetry, they do not wedge the cluster).
type Bus struct {
	mu     sync.Mutex
	subs   map[string][]*Subscription
	closed bool
	// Published counts total messages accepted, for diagnostics.
	published uint64
	dropped   uint64
	// clk, when set, gets one work token per enqueued message (retired by
	// the consumer's Done call, or here when the message is dropped). The
	// tokens keep a fake clock from advancing past messages that are
	// delivered but not yet observed by their consumer goroutine.
	clk vclock.Clock
}

// Subscription receives messages for one topic.
type Subscription struct {
	bus     *Bus
	name    string
	ch      chan Message
	dropped uint64 // messages this subscription lost to overflow
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[string][]*Subscription{}}
}

// SetClock attaches a clock for in-flight-delivery accounting. Call it
// before any traffic flows; consumers of a clocked bus must acknowledge
// every received message with Subscription.Done.
func (b *Bus) SetClock(clk vclock.Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clk = clk
}

// Subscribe registers a named consumer on a topic with the given queue
// depth. It returns an error if the bus is closed or depth is not positive.
func (b *Bus) Subscribe(topic, name string, depth int) (*Subscription, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("bus: queue depth %d must be positive", depth)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("bus: closed")
	}
	s := &Subscription{bus: b, name: name, ch: make(chan Message, depth)}
	b.subs[topic] = append(b.subs[topic], s)
	return s, nil
}

// Publish delivers the message to every live subscription of its topic.
// Full queues drop their oldest entry to make room.
func (b *Bus) Publish(m Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.published++
	for _, s := range b.subs[m.Topic] {
		for {
			select {
			case s.ch <- m:
				if b.clk != nil {
					b.clk.AddWork(1)
				}
			default:
				// Queue full: drop the oldest and retry. The dropped
				// message will never be acknowledged, so retire its work
				// token here.
				select {
				case <-s.ch:
					b.dropped++
					s.dropped++
					if b.clk != nil {
						b.clk.DoneWork()
					}
					continue
				default:
				}
			}
			break
		}
	}
}

// Stats returns the number of messages accepted and dropped so far.
func (b *Bus) Stats() (published, dropped uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped
}

// SubscriptionStats is one subscription's drop count, identifying the
// consumer that lost messages.
type SubscriptionStats struct {
	Topic   string
	Name    string
	Dropped uint64
}

// SubscriptionStats returns per-subscription drop counts, sorted by topic
// then consumer name.
func (b *Bus) SubscriptionStats() []SubscriptionStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []SubscriptionStats
	for topic, subs := range b.subs {
		for _, s := range subs {
			out = append(out, SubscriptionStats{Topic: topic, Name: s.name, Dropped: s.dropped})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topic != out[j].Topic {
			return out[i].Topic < out[j].Topic
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Close shuts the bus down; subsequent publishes are ignored and all
// subscription channels are closed.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, subs := range b.subs {
		for _, s := range subs {
			close(s.ch)
		}
	}
}

// C returns the receive channel of the subscription.
func (s *Subscription) C() <-chan Message { return s.ch }

// Done acknowledges one received message, retiring its clock work token.
// Call it after the message has been fully handled (state applied,
// waiters notified) so a fake clock cannot advance mid-delivery. No-op on
// an unclocked bus.
func (s *Subscription) Done() {
	s.bus.mu.Lock()
	clk := s.bus.clk
	s.bus.mu.Unlock()
	if clk != nil {
		clk.DoneWork()
	}
}
