// The benchmark is a module of its own so that it builds from its own build
// file and stays out of the root module's `go build ./...` and `go test
// ./...`. Its module path sits under the root module's, which is what lets
// it time the public functions of zaatar/internal/... from outside.
module zaatar/bench

go 1.22

require zaatar v0.0.0

replace zaatar => ../
