	.ascii "a", "b"
