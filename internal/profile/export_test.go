package profile

// The external tests in scan_test.go import the simulators, which import
// this package, so they reach the two decoders through these names.
var (
	ReadJSONGeneral = readJSON
	ScanProfile     = scanProfile
)
