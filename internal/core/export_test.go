package core

// RefFromProfiles reaches the reference in differential_test.go from the
// external tests, which import the store (and so cannot live in this
// package).
var RefFromProfiles = refFromProfiles
