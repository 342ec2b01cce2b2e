package selection

// Exported for the external tests, which build worlds through packages
// that import this one.
var (
	CheckTableMatchesFill = checkTableMatchesFill
	CheckLargeTables      = checkLargeTables
)
