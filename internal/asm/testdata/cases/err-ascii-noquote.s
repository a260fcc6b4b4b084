	.ascii hello
