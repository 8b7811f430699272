module zcorba/benchmark

go 1.24

require zcorba v0.0.0

replace zcorba => ../
