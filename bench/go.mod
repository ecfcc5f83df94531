module escape/bench

go 1.24

require escape v0.0.0

replace escape => ../
