package simd

import (
	"math"
	"sync"
	"time"
)

// limiter is a per-client token-bucket rate limiter: each client
// identity gets a bucket of `burst` tokens refilled at `rate` tokens per
// second, and each scenario request spends one token. Buckets are
// created full on first sight, so a new client can burst immediately;
// a drained bucket yields the wait until enough tokens accrue, which
// the server surfaces as Retry-After.
//
// Callers choose their identities, so the map must not keep one bucket
// per identity ever seen. A refilled bucket behaves exactly like a fresh
// one, so whenever the map has doubled since the last sweep, take drops
// the refilled ones: amortised O(1) per take.
type limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu        sync.Mutex
	buckets   map[string]*bucket
	sweepSize int // map size at which take sweeps next
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newLimiter returns a limiter, or nil when rate <= 0 (unlimited).
func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(1, rate)
	}
	return &limiter{rate: rate, burst: b, buckets: map[string]*bucket{}}
}

// take spends n tokens from client's bucket. When the bucket holds too
// few, nothing is spent and the second return is how long until n are
// available — the Retry-After hint. A nil limiter always admits.
func (l *limiter) take(client string, n int, now time.Time) (ok bool, wait time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[client]
	if !found {
		if len(l.buckets) >= l.sweepSize {
			l.sweep(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	need := float64(n)
	if need > l.burst {
		// A batch larger than the bucket can never be admitted whole;
		// report a wait sized to the shortfall so the client splits or
		// backs off (the server separately caps batch size).
		need = l.burst
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true, 0
	}
	return false, time.Duration((need - b.tokens) / l.rate * float64(time.Second))
}

// sweep drops every bucket that has refilled to burst by now, then sets
// the next sweep at twice the surviving size.
func (l *limiter) sweep(now time.Time) {
	for client, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, client)
		}
	}
	l.sweepSize = 2 * len(l.buckets)
}
