// Package configs is the model zoo as Caffe ships it: the LeNet and
// CIFAR-10-full nets and their solvers, one prototxt file each. internal/zoo
// builds -zoo NAME from these bytes, so it is -model configs/FILE exactly.
package configs

import "embed"

// FS holds lenet.prototxt, lenet_solver.prototxt, cifar10_full.prototxt
// and cifar10_full_solver.prototxt.
//
//go:embed *.prototxt
var FS embed.FS
