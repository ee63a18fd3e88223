package cluster

import (
	"testing"
	"time"

	"sdnavail/internal/vclock"
)

// TestBusPerSubscriptionDrops: a slow consumer loses messages to overflow
// while a fast one keeps up; the per-subscription stats must attribute the
// losses to the right consumer.
func TestBusPerSubscriptionDrops(t *testing.T) {
	b := NewBus(vclock.NewFake(time.Time{}))
	defer b.Close()
	slow, err := b.Subscribe("t", "slow", 2)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := b.Subscribe("t", "fast", 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		b.Publish(Message{Topic: "t", From: "test", Payload: i})
	}
	published, dropped := b.Stats()
	if published != n {
		t.Errorf("published = %d, want %d", published, n)
	}
	if want := uint64(n - 2); dropped != want {
		t.Errorf("dropped = %d, want %d (slow queue depth 2)", dropped, want)
	}
	stats := b.SubscriptionStats()
	if len(stats) != 2 {
		t.Fatalf("got %d subscription stats, want 2", len(stats))
	}
	// Sorted by topic then name: fast before slow.
	if stats[0].Name != "fast" || stats[0].Dropped != 0 {
		t.Errorf("fast stats = %+v, want 0 drops", stats[0])
	}
	if stats[1].Name != "slow" || stats[1].Dropped != n-2 {
		t.Errorf("slow stats = %+v, want %d drops", stats[1], n-2)
	}
	// The slow consumer still holds the newest messages.
	if m := <-slow.C(); m.Payload.(int) != n-2 {
		t.Errorf("slow head = %v, want %d (oldest dropped)", m.Payload, n-2)
	}
	if m := <-fast.C(); m.Payload.(int) != 0 {
		t.Errorf("fast head = %v, want 0 (nothing dropped)", m.Payload)
	}
}
