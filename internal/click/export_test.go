package click

// Parse is parse, for the fuzz test outside the package, which seeds
// from the catalog's configurations.
var Parse = parse

// CachedPlan is the plan cached for a configuration text, or nil; the
// plan-cache isolation test compares them by identity.
func CachedPlan(config string) *plan { return plans.get(config) }

// BuiltFromOnePlan reports whether two routers were built from one
// compiled plan: they share the declaration order the plan hands out.
func BuiltFromOnePlan(a, b *Router) bool { return len(a.order) > 0 && &a.order[0] == &b.order[0] }
