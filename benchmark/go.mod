// The benchmark is a module of its own so that building it never touches
// the repository's build file; the coarsegrain/ path prefix is what lets
// it import the parent's internal packages.
module coarsegrain/benchmark

go 1.22

require coarsegrain v0.0.0

replace coarsegrain => ../
