	.double 1.0, x
