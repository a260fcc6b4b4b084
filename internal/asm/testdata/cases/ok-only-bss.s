	.bss
x: .space 8
