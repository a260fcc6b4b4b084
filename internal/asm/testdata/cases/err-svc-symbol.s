_start:
	svc later
	.equ later, 1
