	.asciz "\xzz"
