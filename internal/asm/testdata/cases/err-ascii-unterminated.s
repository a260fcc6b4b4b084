	.ascii "hello
