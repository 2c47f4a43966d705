// Package clocky is the model-clock fixture: direct wall-clock reads,
// global rand, and transitive reaches through clockhelp must all be
// flagged; model-time arithmetic, seeded sources and clock-free helpers
// must not.
package clocky

import (
	"math/rand"
	"time"

	"clockhelp"
)

// Step advances model time; pure duration arithmetic is legal.
func Step(t float64, dt time.Duration) float64 {
	return t + dt.Seconds()
}

// Jitter draws from a seeded source — the legal way to be random.
func Jitter(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// Scale calls a clock-free helper; no diagnostic.
func Scale(x float64) float64 {
	return clockhelp.Pure(x)
}

// BadDirect reads the wall clock in a model-clock package.
func BadDirect() float64 {
	return float64(time.Now().UnixNano()) // want `model-clock package clocky reads time.Now`
}

// BadSleep waits on the wall clock.
func BadSleep() {
	time.Sleep(time.Millisecond) // want `model-clock package clocky reads time.Sleep`
}

// BadValue takes a wall-clock function as a value: calling it later reads
// the clock just the same.
func BadValue() func() time.Time {
	now := time.Now // want `model-clock package clocky reads time.Now`
	return now
}

// Use consumes an injected generator; naming the rand.Rand type is legal.
func Use(rng *rand.Rand) float64 { return rng.Float64() }

// BadRand consults the global rand source.
func BadRand() float64 {
	return rand.Float64() // want `the global rand source via rand.Float64`
}

// BadTransitive reaches the wall clock through another package's helper.
func BadTransitive() float64 {
	return clockhelp.Stamp() // want `reaches the wall clock via clockhelp.Stamp`
}

// BadMethod reaches the wall clock through a method on an imported type.
func BadMethod(t clockhelp.Ticker) {
	t.Wait() // want `reaches the wall clock via \(clockhelp.Ticker\).Wait`
}

// localRelay is a same-package helper whose direct read is reported once,
// in its own body; Relay's call of it is not double-reported.
func localRelay() float64 {
	return float64(time.Now().Unix()) // want `model-clock package clocky reads time.Now`
}

// Relay calls the tainted same-package helper.
func Relay() float64 { return localRelay() }

// OKMethod calls the clock-free method on the imported type.
func OKMethod(t clockhelp.Ticker) time.Duration { return t.Len() }
