package eval

// Test-only access for the external eval_test package, which can import
// the model zoo that the eval package itself cannot.
var (
	AppendNormalized    = appendNormalized
	AppendNormalizedRef = appendNormalizedRef
)
