// Package ignorecheck seeds suppression directives that name no analyzer
// scionlint runs: a typo and a retired name. Such a directive suppresses
// nothing, so ignorecheck reports it.
package ignorecheck

//lint:file-ignore lockcheckv2 retired name // want "unknown analyzer .lockcheckv2."

//lint:ignore lockchek typo of lockcheck // want "unknown analyzer .lockchek."
func typo() int { return 1 }

//lint:ignore * wildcard names every analyzer
func wildcard() int { return typo() }
