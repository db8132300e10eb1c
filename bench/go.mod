module cimmlc/bench

go 1.24

require cimmlc v0.0.0

replace cimmlc => ../
