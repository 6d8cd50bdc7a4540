package pipeline

// Test-only exports for the external pipeline_test package, whose tests
// import packages (internal/experiments) that themselves import
// pipeline.

// AssertPricingBitIdentical exposes the delta-pricer equivalence check
// of incremental_test.go.
var AssertPricingBitIdentical = assertPricingBitIdentical
