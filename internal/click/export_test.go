package click

// Parse is parse, for the fuzz test outside the package, which seeds
// from the catalog's configurations.
var Parse = parse
