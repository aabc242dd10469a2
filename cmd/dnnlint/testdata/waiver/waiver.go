// Package waiver holds a waiver that names an analyzer the suite no
// longer has; dnnlint must report it, since it waives nothing.
package waiver

// V is a value.
var V = 1 //dnnlint:ignore tracenil left behind when the analyzer was deleted
