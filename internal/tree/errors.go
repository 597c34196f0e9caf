package tree

import "errors"

// Sentinel errors of the tree layer. Sites wrap them with %w and
// contextual detail so callers can errors.Is against the failure class.
var (
	// ErrEmptyData reports induction attempted on no training tuples or
	// no attributes.
	ErrEmptyData = errors.New("tree: empty training data")
	// ErrMalformedTree reports a serialized tree that violates the
	// structural invariants (leaf with children, missing branches,
	// non-ascending multiway codes, attributes outside the schema).
	ErrMalformedTree = errors.New("tree: malformed tree")
	// ErrUnknownCriterion reports a criterion name ParseCriterion does
	// not accept.
	ErrUnknownCriterion = errors.New("tree: unknown split criterion")
)
