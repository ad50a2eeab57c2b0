package policy

// TokenBucket is a deterministic virtual-time token bucket: capacity
// Burst tokens, refilled continuously at Rate tokens per second. Each
// admitted request takes one token; a request that finds less than one
// token is shed. State is two scalars, so admission decisions depend
// only on the arrival instants — never on wall clock or worker count.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
}

// NewTokenBucket returns a full bucket refilling at rate tokens/s up to
// burst capacity. Rate and burst must be positive; burst below one
// token would shed everything and is rounded up to one.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes one token at virtual time t and reports whether the
// request is admitted. Calls must be non-decreasing in t (the router
// invokes it from time-ordered control events); an earlier t refills
// nothing.
func (b *TokenBucket) Allow(t float64) bool {
	if dt := t - b.last; dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = t
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
