package client

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"shbf/internal/wire"
)

// RetryPolicy configures [Client.WithRetry]: capped exponential
// backoff with full jitter. Retries are attempted only when they are
// safe — the operation must be idempotent, and the failure must be
// either a transport error (connection refused/reset, deadline on the
// wire) or daemon overload ([IsOverloaded]), both of which mean
// retrying cannot double-apply an update:
//
//   - Membership adds and membership merges OR bits, so repeating a
//     possibly-applied batch or merge lands on the same answers.
//     Queries, dumps, freezes (byte-identical by contract), stats,
//     lists, pings and cluster-map fetches are reads.
//   - Multiplicity and association updates increment counters, and a
//     multiplicity merge adds the envelope's counters; a lost response
//     may have applied them, so a blind retry double-counts. These are
//     never retried — resume explicitly from *Error.Applied.
//   - Rotation and namespace create/delete change state the caller
//     observes (epochs, existence), so a repeat can report a spurious
//     conflict; they are never retried either.
//
// Context cancellation and deadline expiry are never retried: the
// caller's budget is spent.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first try
	// (0 = no retries, making WithRetry a no-op).
	MaxRetries int
	// BaseDelay seeds the backoff: attempt n waits a uniformly random
	// duration in (0, min(BaseDelay·2ⁿ, MaxDelay)]. 0 = 20ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. 0 = 1s.
	MaxDelay time.Duration
}

const (
	defaultBaseDelay = 20 * time.Millisecond
	defaultMaxDelay  = time.Second
)

// retryableOp reports whether op is safe to repeat after a failure
// whose application state is unknown (see the RetryPolicy comment for
// the per-op reasoning).
func retryableOp(op byte) bool {
	switch op {
	case wire.OpPing, wire.OpStats, wire.OpNamespaceList, wire.OpClusterMap,
		wire.OpMetrics,
		wire.OpMembershipAdd, wire.OpMembershipContains, wire.OpMembershipMerge,
		wire.OpMembershipDump, wire.OpFreeze,
		wire.OpAssociationQuery, wire.OpMultiplicityCount,
		wire.OpMultiplicityDump:
		return true
	}
	return false
}

// retryableErr reports whether err is worth retrying at all: transport
// failures and daemon overload qualify; context expiry and every other
// daemon-reported status (bad request, not found, conflict — all
// deterministic) do not.
func retryableErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Status == wire.StatusOverloaded
	}
	return true // transport-level failure
}

// shouldRetry decides one more attempt. Nil-receiver safe: a client
// without a policy never retries.
func (p *RetryPolicy) shouldRetry(op byte, err error, attempt int) bool {
	return p != nil && attempt < p.MaxRetries && retryableOp(op) && retryableErr(err)
}

// wait sleeps the jittered backoff for the given attempt, returning
// early with ctx.Err() if the context expires first.
func (p *RetryPolicy) wait(ctx context.Context, attempt int) error {
	base, cap := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = defaultBaseDelay
	}
	if cap <= 0 {
		cap = defaultMaxDelay
	}
	d := base << uint(attempt)
	if d <= 0 || d > cap { // <<-overflow guards included
		d = cap
	}
	// Full jitter: a uniformly random wait in (0, d] decorrelates the
	// retry storms of many clients shed at the same instant.
	d = 1 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
