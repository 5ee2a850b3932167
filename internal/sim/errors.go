package sim

import (
	"context"
	"errors"
)

// ErrKind classifies job failures so the scheduler can decide what to
// retry and the HTTP layer can decide what status to return. The rules:
// only transient failures are retried; deadline kills, panics, caller
// cancellations, invalid requests and shed load are all permanent for
// the attempt that observed them.
type ErrKind int

const (
	// KindUnknown is the zero value (err == nil, or unclassifiable).
	KindUnknown ErrKind = iota
	// KindInvalid marks a malformed request: retrying cannot help.
	KindInvalid
	// KindCanceled marks a caller that went away (context.Canceled).
	KindCanceled
	// KindDeadline marks a job killed by its deadline. Simulations are
	// deterministic, so a re-run would time out again; never retried.
	KindDeadline
	// KindPanic marks a job whose body panicked. Deterministic, so a
	// retry would panic again; never retried.
	KindPanic
	// KindOverload marks load shed at the admission queue. The caller
	// (not the scheduler) decides whether and when to retry — the HTTP
	// layer translates this to 429 + Retry-After.
	KindOverload
	// KindTransient is every other failure: eligible for
	// retry-with-backoff when the scheduler has a retry policy.
	KindTransient
)

// String renders the kind for logs and HTTP error bodies.
func (k ErrKind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindCanceled:
		return "canceled"
	case KindDeadline:
		return "deadline"
	case KindPanic:
		return "panic"
	case KindOverload:
		return "overload"
	case KindTransient:
		return "transient"
	default:
		return "unknown"
	}
}

// ErrOverloaded is the sentinel under every shed-load error.
var ErrOverloaded = errors.New("sim: overloaded: admission queue full")

// JobError attaches an ErrKind to an underlying failure. It formats as
// the wrapped error so existing messages (e.g. panic conversions) are
// unchanged.
type JobError struct {
	Kind ErrKind
	Err  error
}

func (e *JobError) Error() string { return e.Err.Error() }
func (e *JobError) Unwrap() error { return e.Err }

// Classify maps an error to its ErrKind. Explicit *JobError kinds win;
// context errors are recognized wherever they sit in the chain; anything
// else is presumed transient (the conservative default for retry is
// bounded by the scheduler's attempt budget).
func Classify(err error) ErrKind {
	if err == nil {
		return KindUnknown
	}
	var je *JobError
	if errors.As(err, &je) {
		return je.Kind
	}
	switch {
	case errors.Is(err, ErrOverloaded):
		return KindOverload
	case errors.Is(err, context.DeadlineExceeded):
		return KindDeadline
	case errors.Is(err, context.Canceled):
		return KindCanceled
	default:
		return KindTransient
	}
}

// Retryable reports whether a failed job may be re-attempted.
func Retryable(err error) bool { return Classify(err) == KindTransient }

// invalid wraps a request-shaped error as permanently invalid.
func invalid(err error) error {
	if err == nil {
		return nil
	}
	return &JobError{Kind: KindInvalid, Err: err}
}
