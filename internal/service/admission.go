package service

import (
	"math"
	"sync"
	"time"

	"hbmvolt/internal/telemetry"
)

// retryAfterSeconds converts "depth jobs ahead of you, served by
// workers workers, at median latency per job" into the whole seconds a
// client should wait before retrying: the expected time for the backlog
// to drain, floored at 1 s (the protocol's minimum useful hint) and
// capped at 5 min (past that the number is noise, not guidance).
func retryAfterSeconds(depth, workers int, median time.Duration) int {
	if workers < 1 {
		workers = 1
	}
	if median <= 0 {
		median = time.Second // no observations yet: the old hardcoded hint
	}
	if depth < 1 {
		depth = 1
	}
	wait := time.Duration(math.Ceil(float64(depth)/float64(workers))) * median
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// rateLimiter is a per-client token-bucket admission gate: each client
// key (the request's remote host, or its X-Client-ID header when set)
// gets a bucket of Burst tokens refilling at Rate tokens/second. A
// submission costs one token; an empty bucket means 429 with a
// Retry-After telling the client when the next token lands.
//
// Buckets for idle clients are evicted once the map exceeds maxClients,
// so an address-churning flood cannot grow memory without bound (a
// fresh bucket starts full, so eviction can only ever under-throttle,
// never lock a legitimate client out).
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	// denied is the hbmvolt_admission_rejected_total{reason="rate"}
	// counter.
	denied *telemetry.Counter

	// now is the clock, injectable in tests.
	now func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map.
const maxClients = 16384

// newRateLimiter builds a limiter; rate <= 0 disables limiting (Allow
// always succeeds). denied is the rejection counter to increment on
// every refused submission; nil gets a private unregistered counter.
func newRateLimiter(rate float64, burst int, denied *telemetry.Counter) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	if denied == nil {
		denied = &telemetry.Counter{}
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		denied:  denied,
		now:     time.Now,
	}
}

// Allow spends one token from client's bucket. When the bucket is
// empty it reports false plus the seconds (whole, >= 1) until a token
// is available.
func (l *rateLimiter) Allow(client string) (ok bool, retryAfter int) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, found := l.buckets[client]
	if !found {
		if len(l.buckets) >= maxClients {
			l.evictIdleLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	l.denied.Inc()
	need := (1 - b.tokens) / l.rate
	secs := int(math.Ceil(need))
	if secs < 1 {
		secs = 1
	}
	return false, secs
}

// evictIdleLocked drops buckets that have been idle long enough to have
// refilled completely — forgetting them is behaviorally invisible.
func (l *rateLimiter) evictIdleLocked(now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for key, b := range l.buckets {
		if now.Sub(b.last) > full {
			delete(l.buckets, key)
		}
	}
	// Pathological case: every bucket is hot. Admission correctness
	// (fresh buckets start full) lets us drop arbitrary entries rather
	// than grow without bound.
	for key := range l.buckets {
		if len(l.buckets) < maxClients {
			break
		}
		delete(l.buckets, key)
	}
}
