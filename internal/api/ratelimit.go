package api

import (
	"sync"
	"time"
)

// bucket is one token bucket: tokens refill at rate/sec up to burst.
type bucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter throttles request admission per key (tenant name) with
// classic token buckets. Zero rate disables limiting.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time // injectable clock for tests
}

// newRateLimiter allows sustained rate requests/sec with bursts up to
// burst per key.
func newRateLimiter(rate, burst float64) *rateLimiter {
	return &rateLimiter{rate: rate, burst: burst, buckets: map[string]*bucket{}, now: time.Now}
}

// allow consumes one token for key if available. When it returns
// false, retryAfter is how long until a token will exist.
func (rl *rateLimiter) allow(key string) (ok bool, retryAfter time.Duration) {
	if rl == nil || rl.rate <= 0 {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[key]
	if b == nil {
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / rl.rate
	return false, time.Duration(need * float64(time.Second))
}
